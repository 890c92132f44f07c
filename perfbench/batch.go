package main

import (
	"path/filepath"
	"runtime"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/workload"
)

// unscaledDraws is how many corpus draws unscaled-t10 compiles per pass:
// with four modules, one draw's compile time and size reduction swing
// by a sixth from seed to seed. Six draws, not more, keep a run of
// minPasses passes under about 40 s.
const unscaledDraws = 6

// minPasses is the fewest timed passes a batch run makes, so that each
// module's median compile time (compile_s) sets aside one slowed pass.
const minPasses = 3

// runSpec is the spec-t10 workload: the paper's main suite at the deepest
// Fig. 10 threshold, where ranking and code generation do most of the work.
func runSpec(cfg config) (*result, error) {
	ps := workload.SPECLike()
	if cfg.tiny {
		ps = shrink(ps[:3])
	}
	return runBatch(cfg, draw(ps, cfg.seed, 1))
}

// runUnscaled is the unscaled-t10 workload: paper-scale function sizes,
// where quadratic DP alignment is the largest layer.
func runUnscaled(cfg config) (*result, error) {
	ps, n := workload.UnscaledSmall(), unscaledDraws
	if cfg.tiny {
		ps, n = shrink(ps[:2]), 1
	}
	return runBatch(cfg, draw(ps, cfg.seed, n))
}

// runPass compiles every module once and returns the outcomes and the
// pass's wall time.
func runPass(corp []corpus, opts explore.Options, tr *tracer) ([]compiled, time.Duration) {
	start := time.Now()
	out := make([]compiled, len(corp))
	for i, c := range corp {
		out[i] = compile(c.in, opts, true, tr)
	}
	return out, time.Since(start)
}

// named prefixes a module's problems with its name.
func named(name string, problems []string) []string {
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = name + ": " + p
	}
	return out
}

func runBatch(cfg config, ps []workload.Profile) (*result, error) {
	corp, err := genCorpora(ps)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceBatch(cfg, corp)
	}
	r := &result{}
	opts := exploreOptions(workers, nil)

	// Set-up: the first pass fills process-wide pools and type tables. It
	// is reported as setup_s, and its decisions are the reference every
	// timed pass must reproduce.
	runtime.GC()
	ref, setup := runPass(corp, opts, nil)
	for i, c := range ref {
		r.op(named(corp[i].name, c.problems))
	}

	var passS, allocMB []float64
	modS := make([][]float64, len(corp)) // each module's compile times
	var first []compiled
	var firstProblems [][]string
	start := time.Now()
	for len(passS) < minPasses || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cs, wall := runPass(corp, opts, nil)
		runtime.ReadMemStats(&m1)
		passS = append(passS, wall.Seconds())
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		for i, c := range cs {
			modS[i] = append(modS[i], c.wall.Seconds())
			problems := c.problems
			if d := sameDecisions(ref[i], c); d != "" {
				problems = append(problems, d)
			}
			if first == nil {
				firstProblems = append(firstProblems, problems)
			} else {
				r.op(named(corp[i].name, problems))
			}
		}
		if first == nil {
			first = cs
		}
	}
	timed := time.Since(start)

	// Outside the timed region: the interpreter checks the first timed
	// pass's outputs and prices their runtime overhead.
	var before, after int
	var ratios []float64
	for i, c := range first {
		before += c.sizeBefore
		after += c.sizeAfter
		ratio, problems := checkOutput(corp[i].in, c.out, c.sizeAfter)
		if ratio > 0 {
			ratios = append(ratios, ratio)
		}
		r.note("%-18s size %8d -> %8d (%5.2f%%), runtime %.4f, median %8.1f ms", corp[i].name, c.sizeBefore, c.sizeAfter,
			100*float64(c.sizeBefore-c.sizeAfter)/float64(max(c.sizeBefore, 1)), ratio, 1e3*median(modS[i]))
		r.op(named(corp[i].name, append(firstProblems[i], problems...)))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// A batch user waits for whole passes, so a pass is also the unit the
	// latency percentiles are taken over.
	passMS := make([]float64, len(passS))
	for i, s := range passS {
		passMS[i] = s * 1e3
	}
	// A pass's time is the sum of its modules' times; compile_s takes each
	// module's median over the passes, so a burst of load on the shared
	// host that slows one pass's modules is set aside module by module.
	var compileS float64
	for _, ts := range modS {
		compileS += median(ts)
	}
	r.note("%d modules, %d timed passes (latency samples) in %.1f s, Workers=%d",
		len(corp), len(passS), timed.Seconds(), workers)
	r.add("compile_s", "s", compileS)
	r.add("latency_p50_ms", "ms", quantile(passMS, 0.5))
	r.add("latency_p90_ms", "ms", quantile(passMS, 0.9))
	r.add("size_reduction_pct", "%", 100*float64(before-after)/float64(max(before, 1)))
	r.add("runtime_overhead", "ratio", geomean(ratios))
	r.add("setup_s", "s", setup.Seconds())
	r.add("alloc_mb", "MB", median(allocMB))
	r.add("peak_rss_mb", "MB", rss)
	return r, nil
}

// traceBatch is the traced run of a batch workload, with Workers=1. An
// untraced warm-up pass gives the reference decisions; two traced passes
// (align shim installed, a span around every pipeline call) bracket one
// more untraced pass, which prices the tracing overhead. The first traced
// pass supplies the per-layer figures and its commits are replayed; a
// store-backed session probe on the first module supplies the session,
// store and daemon layers the batch pipeline does not use.
func traceBatch(cfg config, corp []corpus) (*result, error) {
	r := &result{}
	plain := exploreOptions(1, nil)
	runtime.GC()
	ref, _ := runPass(corp, plain, nil)
	for i, c := range ref {
		r.op(named(corp[i].name, c.problems))
	}

	tr := newTracer()
	shimmed := exploreOptions(1, tr)
	type tracedPass struct {
		cs     []compiled
		wall   time.Duration
		w      *window
		counts exploreCounts
	}
	traced := func() tracedPass {
		runtime.GC()
		w := tr.window()
		cs, wall := runPass(corp, shimmed, tr)
		tr.close(w)
		p := tracedPass{cs: cs, wall: wall, w: w}
		for _, c := range cs {
			p.counts.add(c.rep)
		}
		return p
	}
	a := traced()
	runtime.GC()
	untraced, wallU := runPass(corp, plain, nil)
	b := traced()
	for _, pass := range [][]compiled{a.cs, untraced, b.cs} {
		for i, c := range pass {
			problems := c.problems
			if d := sameDecisions(ref[i], c); d != "" {
				problems = append(problems, "with/without align shim: "+d)
			}
			r.op(named(corp[i].name, problems))
		}
	}
	alignA := tr.align(a.w)
	r.op(append(checkRepeat(repeatable(a.counts, alignA), repeatable(b.counts, tr.align(b.w))),
		checkShimCells(a.counts, alignA)...))

	rw := tr.window()
	for i, c := range a.cs {
		r.op(named(corp[i].name, replay(corp[i].in, c, true, tr)))
	}
	tr.close(rw)

	probe, err := traceDelta(cfg, corp[0].in, r)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.state, "spans-"+cfg.workload+".jsonl")); err != nil {
		return nil, err
	}

	var folds int
	for i, c := range a.cs {
		if c.folds != nil {
			folds += c.folds.MergeOps
		}
		var e exploreCounts
		e.add(c.rep)
		r.note("%-16s %5d merges, %6d materialized (%.2f per merge), %9.1f ms traced", corp[i].name,
			e.merges, e.materialized(), frac(e.materialized(), e.merges), ms(c.wall))
	}
	r.note("%d modules; traced passes %.3f s and %.3f s, untraced %.3f s; Workers=1", len(corp), a.wall.Seconds(), b.wall.Seconds(), wallU.Seconds())
	r.add("wire.decode_ms", "ms", tr.totalMS("wire.decode", a.w))
	r.add("wire.encode_ms", "ms", tr.totalMS("wire.encode", a.w))
	r.add("ir.verify_ms", "ms", tr.totalMS("ir.verify", a.w))
	r.add("baseline.identical_ms", "ms", tr.totalMS("baseline.identical", a.w))
	r.add("baseline.folds", "count", float64(folds))
	r.addExploreLayers(a.counts, alignA, tr.totalMS("explore.run", a.w))
	r.addReplayLayers(replayTimes{
		merge:  tr.totalMS("core.merge", rw),
		profit: tr.totalMS("core.profit", rw),
		commit: tr.totalMS("core.commit", rw),
	})
	r.addSessionLayers(probe.layers)
	tracedS := (a.wall.Seconds() + b.wall.Seconds()) / 2
	r.add("trace.overhead_pct", "%", 100*(tracedS-wallU.Seconds())/wallU.Seconds())
	return r, nil
}
