package main

import (
	"fmt"

	"fmsa/internal/explore"
)

// exploreCounts sums the counters explore.Report returns over one traced
// pass (batch) or one traced stream (serve-delta).
type exploreCounts struct {
	merges, candidates              int64
	rankProbes, prefilterSkips      int64
	seqHits, seqMisses              int64
	memoHits, memoMisses            int64
	boundEvals, codegenSkips, cells int64
}

func (e *exploreCounts) add(rep *explore.Report) {
	if rep == nil { // the compile failed and says so in its problems
		return
	}
	e.merges += int64(rep.MergeOps)
	e.candidates += int64(rep.CandidatesEvaluated)
	e.rankProbes += rep.RankProbes
	e.prefilterSkips += rep.RankPrefilterSkips
	e.seqHits += rep.SeqCacheHits
	e.seqMisses += rep.SeqCacheMisses
	e.memoHits += rep.AlignMemoHits
	e.memoMisses += rep.AlignMemoMisses
	e.boundEvals += rep.BoundEvals
	e.codegenSkips += rep.CodegenSkips
	e.cells += rep.AlignCells
}

// materialized counts merged functions code generation built: every
// bound evaluation that did not skip codegen.
func (e exploreCounts) materialized() int64 { return e.boundEvals - e.codegenSkips }

// alignTrace is what the align shim saw over the same pass or stream.
type alignTrace struct {
	calls, cells int64
	ms           float64
}

// repeatable is the counter set two traced runs must reproduce exactly.
func repeatable(e exploreCounts, a alignTrace) [6]int64 {
	return [6]int64{e.merges, e.candidates, e.materialized(), a.calls, a.cells, e.rankProbes}
}

// checkRepeat compares the repeatable counters of two traced runs.
func checkRepeat(a, b [6]int64) []string {
	if a == b {
		return nil
	}
	return []string{fmt.Sprintf("traced counters do not repeat: merges, candidates, materialized, align calls, align cells, rank probes = %v then %v", a, b)}
}

// checkShimCells cross-checks the shim's cell count against the report's.
func checkShimCells(e exploreCounts, a alignTrace) []string {
	if e.cells == a.cells {
		return nil
	}
	return []string{fmt.Sprintf("align cells: report %d, shim %d", e.cells, a.cells)}
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// addExploreLayers emits the explore, align and core counters and the
// explore/align times. runMS is the summed wall time of the explore calls.
func (r *result) addExploreLayers(e exploreCounts, a alignTrace, runMS float64) {
	r.add("explore.run_ms", "ms", runMS)
	r.add("explore.other_ms", "ms", runMS-a.ms)
	r.add("explore.merges", "count", float64(e.merges))
	r.add("explore.candidates", "count", float64(e.candidates))
	r.add("explore.rank_probes", "count", float64(e.rankProbes))
	r.add("explore.rank_prefilter_skips", "count", float64(e.prefilterSkips))
	r.add("explore.seq_cache_hit_frac", "ratio", frac(e.seqHits, e.seqHits+e.seqMisses))
	r.add("align.memo_hit_frac", "ratio", frac(e.memoHits, e.memoHits+e.memoMisses))
	r.add("align.calls", "count", float64(a.calls))
	r.add("align.cells", "count", float64(a.cells))
	r.add("align.ms", "ms", a.ms)
	nsPerCell := 0.0
	if a.cells > 0 {
		nsPerCell = a.ms * 1e6 / float64(a.cells)
	}
	r.add("align.ns_per_cell", "ns", nsPerCell)
	r.add("core.bound_evals", "count", float64(e.boundEvals))
	r.add("core.materialized", "count", float64(e.materialized()))
	r.add("core.materialized_per_merge", "ratio", frac(e.materialized(), e.merges))
}

// replayTimes are the summed span times of one commit replay.
type replayTimes struct{ merge, profit, commit float64 }

func (r *result) addReplayLayers(t replayTimes) {
	r.add("core.replay_merge_ms", "ms", t.merge)
	r.add("core.replay_profit_ms", "ms", t.profit)
	r.add("core.replay_commit_ms", "ms", t.commit)
}

// sessionLayers are the warm-session, store and daemon figures of a traced
// delta stream (see traceDelta).
type sessionLayers struct {
	sessionP50MS, overheadP50MS float64
	delta                       explore.DeltaStats // summed over the stream
	openMS, segmentMB, deadFrac float64
	compactions                 int
}

func (r *result) addSessionLayers(s sessionLayers) {
	r.add("explore.session_ms", "ms", s.sessionP50MS)
	r.add("explore.changed", "count", float64(s.delta.Changed))
	r.add("explore.seeded_lists", "count", float64(s.delta.SeededLists))
	r.add("explore.rescanned_lists", "count", float64(s.delta.RescannedLists))
	r.add("explore.neg_hits", "count", float64(s.delta.NegHits))
	r.add("explore.store_hits", "count", float64(s.delta.StoreHits))
	r.add("explore.store_misses", "count", float64(s.delta.StoreMisses))
	r.add("simdb.open_ms", "ms", s.openMS)
	r.add("simdb.segment_mb", "MB", s.segmentMB)
	r.add("simdb.dead_frac", "ratio", s.deadFrac)
	r.add("simdb.compactions", "count", float64(s.compactions))
	r.add("serve.overhead_ms", "ms", s.overheadP50MS)
}
