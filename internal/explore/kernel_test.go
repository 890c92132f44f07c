package explore

import (
	"reflect"
	"testing"

	"fmsa/internal/align"
	"fmsa/internal/encode"
	"fmsa/internal/workload"
)

// TestKernelCrossCheck is the in-tree version of the cache-invisibility half
// of the kernels gate: exploring with every cache disabled and with both
// caches on must produce identical merge records, identical counters and an
// identical final module.
func TestKernelCrossCheck(t *testing.T) {
	uncached := DefaultOptions()
	uncached.Threshold = 5
	uncached.NoCaches = true

	cached := DefaultOptions()
	cached.Threshold = 5

	for _, workers := range []int{1, 4} {
		ref, refMod := exploreWith(t, uncached, workers, 19)
		got, gotMod := exploreWith(t, cached, workers, 19)
		if !reflect.DeepEqual(ref.Records, got.Records) {
			t.Errorf("workers=%d: records diverge between uncached and cached runs:\nuncached: %+v\ncached:   %+v",
				workers, ref.Records, got.Records)
		}
		if ref.SizeAfter != got.SizeAfter || ref.MergeOps != got.MergeOps {
			t.Errorf("workers=%d: outcome counters diverge: size %d vs %d, ops %d vs %d",
				workers, ref.SizeAfter, got.SizeAfter, ref.MergeOps, got.MergeOps)
		}
		if refMod != gotMod {
			t.Errorf("workers=%d: final module text diverges between uncached and cached runs", workers)
		}
		if ref.MergeOps == 0 {
			t.Fatalf("workers=%d: demo module produced no merges; cross-check is vacuous", workers)
		}
		if ref.SeqCacheHits+ref.SeqCacheMisses+ref.AlignMemoHits+ref.AlignMemoMisses != 0 {
			t.Errorf("workers=%d: NoCaches run still consulted a cache", workers)
		}
	}
}

// TestKernelCountersPopulated checks the new perf counters actually flow into
// the report on the default (coded, cached) configuration.
func TestKernelCountersPopulated(t *testing.T) {
	m := workload.Build(demoProfile(3))
	opts := DefaultOptions()
	opts.Threshold = 5
	rep := Run(m, opts)
	if rep.MergeOps == 0 {
		t.Fatal("no merges; counter test is vacuous")
	}
	if rep.AlignCells == 0 {
		t.Error("AlignCells stayed zero despite alignments running")
	}
	if rep.SeqCacheHits == 0 {
		t.Error("SeqCacheHits stayed zero despite the pre-built linearization cache")
	}
	if rep.SeqCacheHits+rep.SeqCacheMisses == 0 || rep.AlignMemoHits+rep.AlignMemoMisses == 0 {
		t.Error("cache counters not populated")
	}
	// The demo profile has identical-clone populations, so the memo must
	// observe at least one repeated code-sequence pair.
	if rep.AlignMemoHits == 0 {
		t.Error("AlignMemoHits stayed zero on a clone-rich module")
	}
}

// TestAlignMemoVerifiesCodes crafts two encodings with identical hashes and
// lengths but different codes: a lookup keyed by the colliding pair must
// miss (collision degrades to recomputation, never a wrong alignment).
func TestAlignMemoVerifiesCodes(t *testing.T) {
	am := newAlignMemo(8)
	a := &encode.Encoded{Codes: []uint32{1, 2, 3}, Hash: 42}
	b := &encode.Encoded{Codes: []uint32{4, 5, 6}, Hash: 99}
	steps := []align.Step{{Op: align.OpMatch, I: 0, J: 0}}
	am.Store(a, b, steps)

	if got, ok := am.Lookup(a, b); !ok || !reflect.DeepEqual(got, steps) {
		t.Fatal("exact-key lookup must hit")
	}
	// Same Hash and length as a, different codes: forged collision.
	aCollide := &encode.Encoded{Codes: []uint32{7, 8, 9}, Hash: 42}
	if _, ok := am.Lookup(aCollide, b); ok {
		t.Error("hash collision served a wrong alignment; Lookup must verify codes")
	}
	bCollide := &encode.Encoded{Codes: []uint32{4, 5, 7}, Hash: 99}
	if _, ok := am.Lookup(a, bCollide); ok {
		t.Error("hash collision on the second operand must also miss")
	}
}

// TestAlignMemoCapStopsInserts pins the bounded-memo policy: a full memo
// rejects new keys but keeps serving existing ones, and Store never evicts.
func TestAlignMemoCapStopsInserts(t *testing.T) {
	am := newAlignMemo(1)
	a := &encode.Encoded{Codes: []uint32{1}, Hash: 1}
	b := &encode.Encoded{Codes: []uint32{2}, Hash: 2}
	am.Store(a, b, []align.Step{{Op: align.OpMismatch, I: 0, J: 0}})

	c := &encode.Encoded{Codes: []uint32{3}, Hash: 3}
	am.Store(a, c, []align.Step{{Op: align.OpMatch, I: 0, J: 0}})
	if _, ok := am.Lookup(a, c); ok {
		t.Error("full memo accepted an insert beyond its cap")
	}
	if _, ok := am.Lookup(a, b); !ok {
		t.Error("full memo dropped an existing entry")
	}
}
