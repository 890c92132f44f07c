package experiments

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// BoundCheckResult summarizes one corpus of the profitability-bound
// differential check, serialized as a JSON line by cmd/fmsa-bench -exp bound.
type BoundCheckResult struct {
	Corpus string `json:"corpus"`
	// MergeOps is the (identical) number of merges both pipelines commit.
	MergeOps int `json:"merge_ops"`
	// BoundEvals and CodegenSkips come from the pruning run: how many bound
	// evaluations ran and how many skipped code generation.
	BoundEvals   int64 `json:"bound_evals"`
	CodegenSkips int64 `json:"codegen_skips"`
	// Materialized counts bound-evaluated pairs the pruning run still had
	// to generate code for (BoundEvals − CodegenSkips): the merges the
	// bound could not rule out, MergeOps of which commit. The gap between
	// the two is the bound's remaining slack. Pairs where bounding bails on
	// the constant-branch hazard fall outside both counts.
	Materialized int64 `json:"materialized"`
	// AuditedPairs counts candidate pairs where the audit run compared the
	// bound against the exact profit (pairs where bounding bails on the
	// constant-branch hazard are not comparable and not counted).
	AuditedPairs int64 `json:"audited_pairs"`
	// Inadmissible counts audited pairs whose exact profit exceeded the
	// bound — each one is a pair pruning could wrongly discard. Must be 0.
	Inadmissible int64 `json:"inadmissible"`
	// Match reports bit-identical records and final module text between the
	// pruning pipeline and the unpruned audit pipeline.
	Match bool `json:"match"`
	// Detail names the first divergence when Match is false.
	Detail string `json:"detail,omitempty"`
}

// BoundCrossCheck is the executable form of the PR 5 admissibility guarantee.
// Every corpus runs through two identically built modules:
//
//  1. the default pipeline with pre-codegen pruning on, and
//  2. an audit pipeline (core.Options.BoundAudit) that prunes nothing: every
//     usable bound is checked against the exact cost model on the
//     materialized merged function.
//
// The audit run is the unpruned reference. The two must commit
// bit-identical merge records and final modules — pruning may only skip
// pairs the exact model rejects — and the audit must find zero inadmissible
// bounds (exact profit > bound). An inadmissible bound, a decision
// divergence or a module-text difference all surface here. Returns an error
// naming the first diverging corpus.
func BoundCrossCheck(profiles []workload.Profile, target tti.Target, threshold, workers int) ([]BoundCheckResult, error) {
	var out []BoundCheckResult
	var firstErr error
	for _, p := range profiles {
		runOne := func(audit func(f1, f2 *ir.Func, bound, exact int)) (*explore.Report, string) {
			m := workload.Build(p)
			opts := explore.DefaultOptions()
			opts.Threshold = threshold
			opts.Target = target
			opts.Workers = workers
			opts.Merge.BoundAudit = audit
			rep := explore.Run(m, opts)
			return rep, ir.FormatModule(m)
		}

		got, gotMod := runOne(nil)
		var pairs, inadmissible int64
		ref, refMod := runOne(func(f1, f2 *ir.Func, bound, exact int) {
			atomic.AddInt64(&pairs, 1)
			if exact > bound {
				atomic.AddInt64(&inadmissible, 1)
			}
		})

		r := BoundCheckResult{
			Corpus:       p.Name,
			MergeOps:     got.MergeOps,
			BoundEvals:   got.BoundEvals,
			CodegenSkips: got.CodegenSkips,
			Materialized: got.BoundEvals - got.CodegenSkips,
			AuditedPairs: pairs,
			Inadmissible: inadmissible,
			Match:        true,
		}
		switch {
		case inadmissible > 0:
			r.Match, r.Detail = false,
				fmt.Sprintf("%d/%d audited pairs have exact profit above the bound", inadmissible, pairs)
		case ref.CodegenSkips != 0:
			r.Match, r.Detail = false,
				fmt.Sprintf("audit run pruned %d pairs; it must materialize every pair", ref.CodegenSkips)
		case !reflect.DeepEqual(ref.Records, got.Records):
			r.Match, r.Detail = false, "merge records diverge"
		case ref.SizeAfter != got.SizeAfter:
			r.Match, r.Detail = false,
				fmt.Sprintf("final size diverges: unpruned %d, pruned %d", ref.SizeAfter, got.SizeAfter)
		case refMod != gotMod:
			r.Match, r.Detail = false, "final module text diverges"
		}
		if !r.Match && firstErr == nil {
			firstErr = fmt.Errorf("bound cross-check failed on %s: %s", p.Name, r.Detail)
		}
		out = append(out, r)
	}
	return out, firstErr
}
