package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// VerifyResult is the machine-readable summary of one corpus's verification
// sweep, serialized as a JSON line by cmd/fmsa-bench -exp verify. Per-corpus
// rows carry the boundary diagnostic counts and the decision-invariance
// verdict; the trailing "aggregate" row carries the fast-level overhead
// measurement the sweep gates on.
type VerifyResult struct {
	Experiment string `json:"experiment"` // always "verify"
	// Corpus names the checked corpus, or "aggregate" for the overhead row.
	Corpus string `json:"corpus"`
	// Funcs and Insts size the corpus module.
	Funcs int `json:"funcs,omitempty"`
	Insts int `json:"insts,omitempty"`
	// Diagnostic counts at each pipeline boundary, all at the full level:
	// after print→reparse, after a wire encode/decode round trip, after
	// split into translation units and relinking, and after the merging
	// pipeline (in-pipeline gates plus the final module pass).
	PostParseDiags int `json:"post_parse_diags"`
	PostWireDiags  int `json:"post_wire_diags"`
	PostLinkDiags  int `json:"post_link_diags"`
	PostMergeDiags int `json:"post_merge_diags"`
	// VerifiedFuncs counts functions the in-pipeline gates checked.
	VerifiedFuncs int64 `json:"verified_funcs,omitempty"`
	// BitIdentical reports that exploring with verification off and with
	// full verification commits the same merge records and produces the
	// same final module text — the gates are recording-only by contract.
	BitIdentical bool `json:"bit_identical"`
	// Detail names the first divergence or diagnostic when something broke.
	Detail string `json:"detail,omitempty"`
	// Aggregate-row fields: fastest whole-suite exploration wall clock with
	// verification off and at the fast level, across Runs repetitions, and
	// the resulting overhead percentage the sweep gates at <= 5%.
	Runs        int     `json:"runs,omitempty"`
	NsOff       int64   `json:"ns_off,omitempty"`
	NsFast      int64   `json:"ns_fast,omitempty"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// VerifyConfig selects one verification sweep.
type VerifyConfig struct {
	Workers int // <= 0 selects GOMAXPROCS
	Runs    int // overhead-measurement repetitions; <= 0 means 3
	// Threshold is the exploration threshold for the merge boundary.
	Threshold int
	// Units is the translation-unit count for the split/link boundary;
	// <= 0 means 4.
	Units int
}

// overheadSlack absorbs fixed scheduling noise on corpora that explore in a
// few milliseconds, where a single descheduling would dwarf the 5% budget.
const overheadSlack = 50 * time.Millisecond

// VerifySweep drives every corpus through the pipeline's IR boundaries —
// print→reparse, wire round trip, split+relink, and the merging pipeline
// with in-pipeline gates on — verifying at the full level after each one,
// and checks that verification never changes merge decisions. It then
// measures whole-suite exploration with verification off versus the fast
// level and gates the overhead at 5% of suite wall clock (plus a fixed
// slack for timer noise). Returns an error naming the first violation.
func VerifySweep(profiles []workload.Profile, target tti.Target, cfg VerifyConfig) ([]VerifyResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.Units <= 0 {
		cfg.Units = 4
	}
	var out []VerifyResult
	var firstErr error
	fail := func(corpus, detail string) {
		if firstErr == nil {
			firstErr = fmt.Errorf("verify sweep failed on %s: %s", corpus, detail)
		}
	}
	for _, p := range profiles {
		m := workload.Build(p)
		row := VerifyResult{
			Experiment: "verify", Corpus: p.Name,
			Funcs: len(m.Definitions()), Insts: m.NumInsts(),
		}

		// Boundary 1: the textual round trip. Print, reparse, verify what
		// the parser accepted.
		reparsed, err := ir.ParseModule(p.Name, ir.FormatModule(m))
		if err != nil {
			row.Detail = fmt.Sprintf("reparse: %v", err)
			row.PostParseDiags = -1
		} else {
			row.PostParseDiags = len(ir.VerifyModuleLevel(reparsed, ir.VerifyFull))
		}

		// Boundary 2: the binary wire round trip.
		data, err := wire.Encode(m)
		if err != nil {
			row.Detail = fmt.Sprintf("encode: %v", err)
			row.PostWireDiags = -1
		} else if decoded, err := wire.Decode(data, wire.Options{Workers: cfg.Workers}); err != nil {
			row.Detail = fmt.Sprintf("decode: %v", err)
			row.PostWireDiags = -1
		} else {
			row.PostWireDiags = len(ir.VerifyModuleLevel(decoded, ir.VerifyFull))
		}

		// Boundary 3: split into translation units, verify each, relink,
		// verify the linked module — the Fig. 9 LTO path.
		units, err := ir.SplitModule(workload.Build(p), cfg.Units)
		if err != nil {
			row.Detail = fmt.Sprintf("split: %v", err)
			row.PostLinkDiags = -1
		} else {
			for _, tu := range units {
				row.PostLinkDiags += len(ir.VerifyModuleLevel(tu, ir.VerifyFull))
			}
			linked, err := ir.LinkModules("linked", units...)
			if err != nil {
				row.Detail = fmt.Sprintf("link: %v", err)
				row.PostLinkDiags = -1
			} else {
				row.PostLinkDiags += len(ir.VerifyModuleLevel(linked, ir.VerifyFull))
			}
		}

		// Boundary 4 + decision invariance: explore with verification off
		// and with full in-pipeline gates; decisions must match exactly.
		runExplore := func(level ir.VerifyLevel) (*explore.Report, string) {
			em := workload.Build(p)
			opts := explore.DefaultOptions()
			opts.Target = target
			opts.Threshold = cfg.Threshold
			opts.Workers = cfg.Workers
			opts.Verify = level
			rep := explore.Run(em, opts)
			return rep, ir.FormatModule(em)
		}
		offRep, offText := runExplore(ir.VerifyOff)
		fullRep, fullText := runExplore(ir.VerifyFull)
		row.PostMergeDiags = len(fullRep.VerifyDiags)
		row.VerifiedFuncs = fullRep.VerifiedFuncs
		row.BitIdentical = true
		switch {
		case !reflect.DeepEqual(offRep.Records, fullRep.Records):
			row.BitIdentical, row.Detail = false, "merge records diverge between verify off and full"
		case offText != fullText:
			row.BitIdentical, row.Detail = false, "final module text diverges between verify off and full"
		}

		if row.Detail != "" {
			fail(p.Name, row.Detail)
		} else if n := row.PostParseDiags + row.PostWireDiags + row.PostLinkDiags + row.PostMergeDiags; n > 0 {
			diags := fullRep.VerifyDiags
			detail := fmt.Sprintf("%d verifier findings", n)
			if len(diags) > 0 {
				detail += ": " + diags[0].String()
			}
			row.Detail = detail
			fail(p.Name, detail)
		}
		out = append(out, row)
	}

	// Overhead gate: fastest whole-suite exploration pass, verification off
	// versus the fast level. Minima rather than medians — the gate asks how
	// much work the fast gates add, and the fastest run is the least noisy
	// estimate of that on a shared machine. The two levels are interleaved
	// within each repetition (off, fast, off, fast, ...) so both sample the
	// same machine load, and the collector runs to completion before each
	// timed pass — GC pacing debt from the previous pass otherwise lands
	// inside the next pass's window and dwarfs the gates' real cost.
	timeOnce := func(level ir.VerifyLevel, best *bestOf) {
		mods := make([]*ir.Module, len(profiles))
		for i, p := range profiles {
			mods[i] = workload.Build(p)
		}
		best.run(func() {
			for _, m := range mods {
				opts := explore.DefaultOptions()
				opts.Target = target
				opts.Threshold = cfg.Threshold
				opts.Workers = cfg.Workers
				opts.Verify = level
				explore.Run(m, opts)
			}
		})
	}
	var off, fast bestOf
	for r := 0; r < cfg.Runs; r++ {
		timeOnce(ir.VerifyOff, &off)
		timeOnce(ir.VerifyFast, &fast)
	}
	agg := VerifyResult{
		Experiment: "verify", Corpus: "aggregate", Runs: cfg.Runs,
		NsOff: off.min.Nanoseconds(), NsFast: fast.min.Nanoseconds(),
	}
	if agg.NsOff > 0 {
		agg.OverheadPct = 100 * float64(agg.NsFast-agg.NsOff) / float64(agg.NsOff)
	}
	agg.BitIdentical = firstErr == nil
	if budget := agg.NsOff + agg.NsOff/20 + overheadSlack.Nanoseconds(); agg.NsFast > budget {
		agg.Detail = fmt.Sprintf("fast-level overhead %.1f%% exceeds the 5%% budget", agg.OverheadPct)
		fail("aggregate", agg.Detail)
	}
	out = append(out, agg)
	return out, firstErr
}
