// Package lsh implements a banded MinHash index over function signatures
// (fingerprint.Signature): the classic locality-sensitive-hashing scheme for
// Jaccard similarity. The signature's lanes are split into Bands bands of
// Rows consecutive lanes each; two members land in the same bucket of a band
// exactly when all Rows lanes of that band agree, which happens with
// probability J^Rows for weighted Jaccard J. Probing returns every member
// sharing at least one band bucket — probability 1-(1-J^Rows)^Bands — so
// similar pairs are found near-certainly while dissimilar pairs are almost
// never touched, replacing the quadratic all-pairs scan of the exact ranking
// with per-bucket work.
//
// The index is deliberately deterministic — and, since the warm-session
// work, content-addressed: members are integer ids (the exploration pool
// assigns pool-insertion indices, sessions assign stable per-name ids),
// buckets hold their ids sorted ascending, and probe results are returned
// sorted ascending. Sorted buckets make the index state a pure function of
// the live (id, signature) set: Remove followed by Insert of the same id and
// signature restores the exact pre-removal state, which is what lets a merge
// session roll back a run's retire/admit churn and what makes incremental
// evict/reinsert equivalent to a rebuild. Inserts and removals keep the
// index consistent as merges retire pool functions and add merged ones.
//
// The index itself is not safe for concurrent mutation; ProbeBatch performs
// read-only probes for many queries across a bounded worker pool.
package lsh

import (
	"fmt"
	"slices"
	"sync"

	"fmsa/internal/fingerprint"
	"fmsa/internal/par"
)

// The banding: Bands bands of Rows consecutive lanes over the 128-lane
// signature. The collision s-curve crosses one half near J ≈ 0.57 while the
// dissimilar tail stays dark (P ≈ 0.1% at J = 0.2), and top-ranked candidate
// pairs — clone families with high shingle overlap — are recalled
// near-certainly. Measured on the largest synthetic corpus this banding
// probes under a quarter of the pairs the exact scan visits for ≈99% top-1
// recall; flatter bandings (more bands, fewer rows) push recall marginally
// higher but probe several times more of the pool. The banding is part of
// the simdb segment format: stored band keys are only valid under it.
const (
	Bands = 21
	Rows  = 6
)

// The banding must fit in the signature: a negative array length fails to
// compile if Bands×Rows ever exceeds fingerprint.SigLanes.
var _ [fingerprint.SigLanes - Bands*Rows]struct{}

// bandKey condenses one band's rows into a bucket key.
func bandKey(sig *fingerprint.Signature, band int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, lane := range sig[band*Rows : (band+1)*Rows] {
		h = (h ^ lane) * prime
	}
	return h
}

// AppendBandKeys appends sig's bucket key for every band to dst and returns
// the extended slice — the exact keys Insert would compute. Persisting them
// next to a signature (the simdb segment does) lets a later NewFromBandKeys
// rehydrate the index without re-hashing any band.
func AppendBandKeys(sig *fingerprint.Signature, dst []uint64) []uint64 {
	for band := 0; band < Bands; band++ {
		dst = append(dst, bandKey(sig, band))
	}
	return dst
}

// Collide reports whether two signatures share at least one band — the
// bucket-mate relation Probe realizes, computed directly from the signatures
// without touching an index. The exploration cache uses it to decide whether
// a newly merged function would be probed by a pending ranking.
func Collide(a, b *fingerprint.Signature) bool {
	for band := 0; band < Bands; band++ {
		match := true
		for r := 0; r < Rows; r++ {
			if a[band*Rows+r] != b[band*Rows+r] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Index is the banded MinHash index.
type Index struct {
	// buckets[band] maps a band key to member ids sorted ascending.
	buckets []map[uint64][]int32
	// keys remembers each member's band keys for removal.
	keys map[int32][]uint64
	// keyArena batch-allocates the per-member band-key slices: inserts carve
	// Bands-sized windows off one chunk instead of allocating each slice.
	// Removed members' windows stay pinned until their chunk dies — a few
	// hundred bytes per churned member, traded for allocation-free inserts.
	keyArena []uint64
	// scratches pools per-probe dedup state so concurrent ProbeBatch
	// goroutines never share one.
	scratches sync.Pool
}

// probeScratch deduplicates one probe's bucket members without a map: ids are
// dense pool indices, so an id is visited iff stamp[id] holds the current
// generation. Bumping gen invalidates the whole array in O(1).
type probeScratch struct {
	stamp []uint32
	gen   uint32
}

// New returns an empty index.
func New() *Index { return NewSized(0) }

// NewSized returns an empty index, pre-sizing every band map and the key
// table for n expected members so that indexing a known-size pool (a session
// or exploration pool) never rehashes. Growth
// past n still works; n is a hint, not a cap.
func NewSized(n int) *Index {
	ix := &Index{buckets: make([]map[uint64][]int32, Bands), keys: make(map[int32][]uint64, n)}
	for i := range ix.buckets {
		ix.buckets[i] = make(map[uint64][]int32, n)
	}
	if n > 0 {
		ix.keyArena = make([]uint64, 0, n*Bands)
	}
	ix.scratches.New = func() any { return &probeScratch{} }
	return ix
}

// NewFromBandKeys bulk-builds the index from precomputed band keys: member i
// is keys[i] when it holds exactly Bands keys (AppendBandKeys order); other
// entries are skipped. The final state is bit-identical to Insert of the
// members' signatures in ascending id order, but no band is ever hashed, every bucket is
// carved at its exact final size from one arena, and the members' key
// windows are aliased rather than copied — the construction allocates a
// handful of objects for a corpus-sized input instead of one per bucket
// growth step. This is the segment-rehydration fast path: a simdb store
// persists each record's band keys, so a warm start files every member
// straight into its buckets.
func NewFromBandKeys(keys [][]uint64) *Index {
	ix := &Index{buckets: make([]map[uint64][]int32, Bands)}
	ix.scratches.New = func() any { return &probeScratch{} }
	signed := make([]int32, 0, len(keys))
	for id, k := range keys {
		if len(k) == Bands {
			signed = append(signed, int32(id))
		}
	}
	ix.keys = make(map[int32][]uint64, len(signed))
	for _, id := range signed {
		ix.keys[id] = keys[id]
	}
	if len(signed) == 0 {
		for band := range ix.buckets {
			ix.buckets[band] = map[uint64][]int32{}
		}
		return ix
	}
	// Per band: count members per bucket key, size the band map to its exact
	// distinct-key count, carve exact-capacity bucket slices off the band's
	// slice of one shared arena, then fill in ascending id order so buckets
	// come out sorted without any insertion shifting.
	idArena := make([]int32, len(signed)*Bands)
	counts := make(map[uint64]int32, len(signed))
	for band := 0; band < Bands; band++ {
		clear(counts)
		for _, id := range signed {
			counts[keys[id][band]]++
		}
		bmap := make(map[uint64][]int32, len(counts))
		seg := idArena[band*len(signed) : (band+1)*len(signed)]
		for _, id := range signed {
			k := keys[id][band]
			b, ok := bmap[k]
			if !ok {
				c := counts[k]
				b = seg[0:0:c]
				seg = seg[c:]
			}
			bmap[k] = append(b, id)
		}
		ix.buckets[band] = bmap
	}
	return ix
}

// Len returns the number of members.
func (ix *Index) Len() int { return len(ix.keys) }

// Insert adds a member at its sorted bucket positions. Ids must be unique
// among live members; a removed id may be re-inserted, and re-inserting it
// with its original signature restores the exact pre-removal bucket state.
func (ix *Index) Insert(id int32, sig *fingerprint.Signature) {
	if _, dup := ix.keys[id]; dup {
		panic(fmt.Sprintf("lsh: duplicate insert of id %d", id))
	}
	// The member's band-key window is carved off the shared arena.
	if cap(ix.keyArena)-len(ix.keyArena) < Bands {
		ix.keyArena = make([]uint64, 0, 256*Bands)
	}
	keys := ix.keyArena[len(ix.keyArena) : len(ix.keyArena)+Bands : len(ix.keyArena)+Bands]
	ix.keyArena = ix.keyArena[:len(ix.keyArena)+Bands]
	for band := range keys {
		k := bandKey(sig, band)
		keys[band] = k
		b := ix.buckets[band][k]
		pos := len(b)
		for pos > 0 && b[pos-1] > id {
			pos--
		}
		b = append(b, 0)
		copy(b[pos+1:], b[pos:])
		b[pos] = id
		ix.buckets[band][k] = b
	}
	ix.keys[id] = keys
}

// Remove deletes a member; unknown ids are a no-op. Bucket order of the
// remaining members is preserved (still sorted ascending).
func (ix *Index) Remove(id int32) {
	keys, ok := ix.keys[id]
	if !ok {
		return
	}
	delete(ix.keys, id)
	for band, k := range keys {
		b := ix.buckets[band][k]
		for i, m := range b {
			if m == id {
				b = append(b[:i], b[i+1:]...)
				break
			}
		}
		if len(b) == 0 {
			delete(ix.buckets[band], k)
		} else {
			ix.buckets[band][k] = b
		}
	}
}

// Members returns the live member ids sorted ascending.
func (ix *Index) Members() []int32 {
	out := make([]int32, 0, len(ix.keys))
	for id := range ix.keys {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Probe returns the ids of every member sharing at least one band bucket
// with sig, excluding self, deduplicated and sorted ascending (pool
// insertion order — the deterministic tie-break order of the ranking).
func (ix *Index) Probe(sig *fingerprint.Signature, self int32) []int32 {
	sc := ix.scratches.Get().(*probeScratch)
	sc.gen++
	if sc.gen == 0 { // generation wrapped: the stale stamps are ambiguous
		clear(sc.stamp)
		sc.gen = 1
	}
	var out []int32
	for band := 0; band < Bands; band++ {
		for _, id := range ix.buckets[band][bandKey(sig, band)] {
			if id == self {
				continue
			}
			if int(id) >= len(sc.stamp) {
				grown := make([]uint32, int(id)+1)
				copy(grown, sc.stamp)
				sc.stamp = grown
			}
			if sc.stamp[id] == sc.gen {
				continue
			}
			sc.stamp[id] = sc.gen
			out = append(out, id)
		}
	}
	// Results must come back ascending (pool insertion order). When the
	// probe touched a large fraction of the id space an in-order sweep of
	// the stamp array is cheaper than comparison sorting; otherwise sort.
	if len(out)*8 >= len(sc.stamp) {
		out = out[:0]
		for id, g := range sc.stamp {
			if g == sc.gen {
				out = append(out, int32(id))
			}
		}
	} else {
		slices.Sort(out)
	}
	ix.scratches.Put(sc)
	return out
}

// ProbeBatch probes many queries across up to workers goroutines. The index
// must not be mutated concurrently; probes themselves are read-only.
// selves[i] is excluded from result i the way Probe excludes self.
func (ix *Index) ProbeBatch(sigs []*fingerprint.Signature, selves []int32, workers int) [][]int32 {
	if len(sigs) != len(selves) {
		panic("lsh: ProbeBatch length mismatch")
	}
	out := make([][]int32, len(sigs))
	par.For(len(sigs), workers, func(i int) {
		out[i] = ix.Probe(sigs[i], selves[i])
	})
	return out
}
