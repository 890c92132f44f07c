package experiments

import (
	"fmt"
	"reflect"

	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// KernelCheckResult summarizes one corpus of the kernel check, serialized as
// a JSON line by cmd/fmsa-bench -exp kernels.
type KernelCheckResult struct {
	Corpus string `json:"corpus"`
	// MergeOps is the (identical) number of merges both pipelines commit.
	MergeOps int `json:"merge_ops"`
	// Entries counts the linearization entries whose codes were checked
	// against the equivalence relation, before and after exploration;
	// Classes is the largest number of distinct codes one pass saw.
	Entries int `json:"entries"`
	Classes int `json:"classes"`
	// Match reports that both checks passed: bit-identical records, size
	// and final module text, and codes that encode the relation exactly.
	Match bool `json:"match"`
	// Detail names the first divergence when Match is false.
	Detail string `json:"detail,omitempty"`
}

// KernelCrossCheck proves, corpus by corpus, that the cached coded pipeline
// computes what the paper's relation prescribes. Two properties together
// carry that proof:
//
//   - Cache invisibility: exploring with Options.NoCaches (every attempt
//     re-linearizes, re-encodes and re-aligns) and with both caches on, on
//     identically built modules, commits bit-identical merge records, final
//     size and final module text. A stale linearization-cache entry or a
//     memo serving the wrong pair surfaces here.
//   - The encoding contract: over every entry of every defined function,
//     before and after exploration, code(a) == code(b) exactly when
//     core.EntriesEquivalent(a, b), in the interning table the cached run
//     used. An encoding key that loses or adds a distinction surfaces here.
//
// With the contract in hand, one integer comparison per DP cell is the
// relation itself, and the align package's tests pin each kernel to a
// reference Needleman–Wunsch. Returns an error naming the first failing
// corpus.
func KernelCrossCheck(profiles []workload.Profile, target tti.Target, threshold, workers int) ([]KernelCheckResult, error) {
	var out []KernelCheckResult
	var firstErr error
	for _, p := range profiles {
		r := checkKernels(p, target, threshold, workers)
		if !r.Match && firstErr == nil {
			firstErr = fmt.Errorf("kernel check failed on %s: %s", p.Name, r.Detail)
		}
		out = append(out, r)
	}
	return out, firstErr
}

// checkKernels runs both checks on one corpus.
func checkKernels(p workload.Profile, target tti.Target, threshold, workers int) KernelCheckResult {
	opts := explore.DefaultOptions()
	opts.Threshold = threshold
	opts.Target = target
	opts.Workers = workers
	uncached := opts
	uncached.NoCaches = true
	refMod := workload.Build(p)
	ref := explore.Run(refMod, uncached)

	in := encode.NewInterner()
	opts.Merge.Interner = in
	m := workload.Build(p)
	n1, c1, errBefore := CheckEncoding(m, in)
	got := explore.Run(m, opts)
	n2, c2, errAfter := CheckEncoding(m, in)

	r := KernelCheckResult{Corpus: p.Name, MergeOps: got.MergeOps, Entries: n1 + n2, Classes: max(c1, c2)}
	switch {
	case errBefore != nil:
		r.Detail = "before exploration: " + errBefore.Error()
	case errAfter != nil:
		r.Detail = "after exploration: " + errAfter.Error()
	case !reflect.DeepEqual(ref.Records, got.Records):
		r.Detail = "merge records diverge between uncached and cached runs"
	case ref.SizeAfter != got.SizeAfter:
		r.Detail = fmt.Sprintf("final size diverges: uncached %d, cached %d", ref.SizeAfter, got.SizeAfter)
	case ir.FormatModule(refMod) != ir.FormatModule(m):
		r.Detail = "final module text diverges between uncached and cached runs"
	}
	r.Match = r.Detail == ""
	return r
}

// CheckEncoding checks the encoding contract
//
//	code(a) == code(b)  ⇔  core.EntriesEquivalent(a, b)
//
// over every entry of every defined function of m, with codes drawn from in.
// It works in class-representative form, linear in the entry count: every
// entry must be equivalent to the first entry that received its code, and
// those first holders must be pairwise non-equivalent. Since the relation is
// an equivalence on the entries it relates, the two together give both
// directions of the contract. It returns the number of entries checked, the
// number of distinct codes, and the first violation.
func CheckEncoding(m *ir.Module, in *encode.Interner) (entries, classes int, err error) {
	first := map[uint32]linearize.Entry{}
	var reps []linearize.Entry
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		enc := in.Encode(linearize.Linearize(f))
		for i, e := range enc.Seq {
			rep, seen := first[enc.Codes[i]]
			switch {
			case !seen:
				first[enc.Codes[i]] = e
				reps = append(reps, e)
			case err == nil && !core.EntriesEquivalent(e, rep):
				err = fmt.Errorf("@%s entry %d shares code %d with a non-equivalent entry",
					f.Name(), i, enc.Codes[i])
			}
		}
		entries += len(enc.Seq)
		linearize.Recycle(enc.Seq)
	}
	for i := range reps {
		for j := i + 1; j < len(reps) && err == nil; j++ {
			if core.EntriesEquivalent(reps[i], reps[j]) {
				err = fmt.Errorf("equivalent entries hold distinct codes (classes %d and %d of %d)", i, j, len(reps))
			}
		}
	}
	return entries, len(reps), err
}
