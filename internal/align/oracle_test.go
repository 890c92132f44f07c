package align

import (
	"math/rand"
	"reflect"
	"testing"
)

// randCodes draws a sequence over a small alphabet so matches are common
// enough for interesting alignments.
func randCodes(rng *rand.Rand, n, alphabet int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(rng.Intn(alphabet))
	}
	return s
}

// TestCodedKernelsBitIdentical sweeps random sequences — including empty and
// degenerate sizes — through every kernel and pins each to the reference
// NW. The direct kernels (AlignCodes below the Hirschberg threshold and
// NeedlemanWunschCodes) must return the oracle's []Step bit for bit: the
// merger's output is a pure function of that slice. The other kernels pick
// their own paths, so they are held to their score contracts: Hirschberg
// scores the optimum, Gotoh's path scores at least the oracle's under the
// affine scheme it optimizes, and a band never beats the optimum.
func TestCodedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kernels := []struct {
		name   string
		kernel CodedFunc
		check  func(got, ref []Step, sc Scoring) bool
	}{
		{"align", AlignCodes, bitIdentical},
		{"nw", NeedlemanWunschCodes, bitIdentical},
		{"hirschberg", HirschbergCodes, func(got, ref []Step, sc Scoring) bool {
			return Score(got, sc) == Score(ref, sc)
		}},
		{"gotoh", GotohAlignerCodes, func(got, ref []Step, sc Scoring) bool {
			aff := AffineScoring{Match: sc.Match, Mismatch: sc.Mismatch, GapOpen: sc.Gap, GapExtend: sc.Gap}
			return AffineScore(got, aff) >= AffineScore(ref, aff)
		}},
		{"banded-8", BandedAlignerCodes(8), notAboveOptimum},
		{"banded-1", BandedAlignerCodes(1), notAboveOptimum},
	}
	check := func(name string, kernel CodedFunc, ok func(got, ref []Step, sc Scoring) bool,
		a, b []uint32, sc Scoring) {
		t.Helper()
		got := kernel(a, b, sc)
		if !Validate(got, len(a), len(b)) {
			t.Errorf("%s: invalid alignment (n=%d m=%d)", name, len(a), len(b))
			return
		}
		if ref := refNW(a, b, sc); !ok(got, ref, sc) {
			t.Errorf("%s: kernel breaks its contract with the reference NW on n=%d m=%d:\nref:    %v\nkernel: %v",
				name, len(a), len(b), ref, got)
		}
	}
	sizes := [][2]int{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 7}, {7, 1},
		{13, 13}, {20, 33}, {64, 64}, {100, 37},
	}
	for _, k := range kernels {
		for _, sz := range sizes {
			for trial := 0; trial < 4; trial++ {
				alphabet := 2 + trial*3
				a := randCodes(rng, sz[0], alphabet)
				b := randCodes(rng, sz[1], alphabet)
				check(k.name, k.kernel, k.check, a, b, DefaultScoring)
			}
		}
	}
	// Non-default scoring exercises tie-break arithmetic differently.
	odd := Scoring{Match: 3, Mismatch: -2, Gap: -4}
	for _, k := range kernels {
		a := randCodes(rng, 41, 4)
		b := randCodes(rng, 29, 4)
		check(k.name+"/odd-scoring", k.kernel, k.check, a, b, odd)
	}
}

func bitIdentical(got, ref []Step, _ Scoring) bool { return reflect.DeepEqual(got, ref) }

func notAboveOptimum(got, ref []Step, sc Scoring) bool { return Score(got, sc) <= Score(ref, sc) }

// TestGotohCodesAffine pins GotohCodes to the exhaustive affine optimum under
// a scoring where opening and extension genuinely differ (GotohAlignerCodes
// collapses them), on sizes beyond TestGotohOptimality's.
func TestGotohCodesAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := AffineScoring{Match: 2, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	for trial := 0; trial < 8; trial++ {
		a := randCodes(rng, 10+trial*7, 3)
		b := randCodes(rng, 8+trial*9, 3)
		got := GotohCodes(a, b, sc)
		if !Validate(got, len(a), len(b)) {
			t.Fatalf("trial %d: invalid affine alignment", trial)
		}
		if gs, want := AffineScore(got, sc), slowAffineScore(a, b, sc); gs != want {
			t.Fatalf("trial %d: affine score %d, exhaustive optimum %d", trial, gs, want)
		}
	}
}

// TestUseDirectOverflow is the regression test for the n*m overflow: with the
// old product-form check, n = m = 1<<32 wraps n*m to 0 on 64-bit and routes a
// ~2^64-cell problem to the direct kernel. The division form must reject it.
func TestUseDirectOverflow(t *testing.T) {
	const huge = 1 << 32 // only meaningful on 64-bit int; harmless elsewhere
	if huge > 0 && useDirect(huge, huge) {
		t.Error("useDirect accepted a 2^64-cell problem (int overflow)")
	}
	if huge > 0 && huge*huge <= maxDirectCells {
		// Documents the wrap the division form guards against.
		t.Log("product form wraps as expected; division form required")
	}
	// Agreement with the product form everywhere the product does not
	// overflow, including both sides of the threshold.
	cases := [][2]int{
		{0, 0}, {0, 9}, {9, 0}, {1, maxDirectCells}, {maxDirectCells, 1},
		{1 << 12, 1 << 12}, {4096, 4097}, {1 << 13, 1 << 11}, {3, maxDirectCells / 3},
		{3, maxDirectCells/3 + 1}, {1 << 13, 1 << 12},
	}
	for _, c := range cases {
		n, m := c[0], c[1]
		want := n == 0 || m == 0 || n*m <= maxDirectCells
		if got := useDirect(n, m); got != want {
			t.Errorf("useDirect(%d, %d) = %v, want %v", n, m, got, want)
		}
	}
}

// TestAlignCodesRouting checks the dispatcher on both sides of the useDirect
// threshold. Below it AlignCodes is direct Needleman–Wunsch, bit-identical to
// the reference. At 4097×4097 — just above maxDirectCells — it must take the
// Hirschberg route, and that alignment must be valid and score exactly what
// the direct kernel scores on the same input.
func TestAlignCodesRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randCodes(rng, 200, 5)
	b := randCodes(rng, 300, 5)
	if !reflect.DeepEqual(AlignCodes(a, b, DefaultScoring), refNW(a, b, DefaultScoring)) {
		t.Fatal("AlignCodes diverges from the reference NW on the direct route")
	}

	const big = 4097
	if useDirect(big, big) {
		t.Fatalf("%d×%d no longer exceeds maxDirectCells; resize the Hirschberg-route case", big, big)
	}
	a = randCodes(rng, big, 5)
	b = randCodes(rng, big, 5)
	got := AlignCodes(a, b, DefaultScoring)
	if !reflect.DeepEqual(got, HirschbergCodes(a, b, DefaultScoring)) {
		t.Fatal("AlignCodes did not take the Hirschberg route above maxDirectCells")
	}
	if !Validate(got, big, big) {
		t.Fatal("Hirschberg route produced an invalid alignment")
	}
	if gs, ds := Score(got, DefaultScoring), Score(NeedlemanWunschCodes(a, b, DefaultScoring), DefaultScoring); gs != ds {
		t.Fatalf("Hirschberg route scored %d, direct kernel %d", gs, ds)
	}
}
