package align

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// slowAffineScore computes the optimal affine-gap alignment score by
// exhaustive three-state recursion, for cross-checking Gotoh on small
// inputs.
func slowAffineScore(a, b []uint32, sc AffineScoring) int {
	type key struct {
		i, j  int
		state int // 0=fresh/match, 1=in gapA, 2=in gapB
	}
	memo := map[key]int{}
	const negInf = -1 << 29
	var rec func(i, j, state int) int
	rec = func(i, j, state int) int {
		if i == len(a) && j == len(b) {
			return 0
		}
		k := key{i, j, state}
		if v, ok := memo[k]; ok {
			return v
		}
		best := negInf
		if i < len(a) && j < len(b) {
			sub := sc.Mismatch
			if a[i] == b[j] {
				sub = sc.Match
			}
			if v := rec(i+1, j+1, 0) + sub; v > best {
				best = v
			}
		}
		if i < len(a) {
			cost := sc.GapExtend
			if state != 1 {
				cost += sc.GapOpen
			}
			if v := rec(i+1, j, 1) + cost; v > best {
				best = v
			}
		}
		if j < len(b) {
			cost := sc.GapExtend
			if state != 2 {
				cost += sc.GapOpen
			}
			if v := rec(i, j+1, 2) + cost; v > best {
				best = v
			}
		}
		memo[k] = best
		return best
	}
	return rec(0, 0, 0)
}

func TestGotohOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sc := AffineScoring{Match: 2, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	for iter := 0; iter < 150; iter++ {
		a := randSeq(r, r.Intn(12), "abc")
		b := randSeq(r, r.Intn(12), "abc")
		steps := GotohCodes(a, b, sc)
		if !Validate(steps, len(a), len(b)) {
			t.Fatalf("invalid gotoh alignment of %v, %v: %v", a, b, steps)
		}
		got := AffineScore(steps, sc)
		want := slowAffineScore(a, b, sc)
		if got != want {
			t.Fatalf("gotoh score %d != optimal %d for %v, %v (%v)", got, want, a, b, steps)
		}
	}
}

func TestGotohIdentical(t *testing.T) {
	steps := GotohCodes(str("hello"), str("hello"), DefaultAffineScoring)
	if countOps(steps)[OpMatch] != 5 {
		t.Errorf("identical strings should fully match: %v", steps)
	}
}

func TestGotohEmpty(t *testing.T) {
	steps := GotohCodes(nil, str("abc"), DefaultAffineScoring)
	if !Validate(steps, 0, 3) {
		t.Errorf("empty-A alignment invalid: %v", steps)
	}
	steps = GotohCodes(str("abc"), nil, DefaultAffineScoring)
	if !Validate(steps, 3, 0) {
		t.Errorf("empty-B alignment invalid: %v", steps)
	}
}

func TestGotohPrefersContiguousGaps(t *testing.T) {
	// A = core, B = core with noise inserted at two sites. With a strong
	// opening penalty the alignment should not have more gap runs than
	// insertion sites.
	a := str("MMMMMMMM")
	b := str("MMxyMMMMzwMM")
	sc := AffineScoring{Match: 2, Mismatch: -3, GapOpen: -4, GapExtend: 0}
	steps := GotohCodes(a, b, sc)
	if !Validate(steps, len(a), len(b)) {
		t.Fatal("invalid alignment")
	}
	if runs := GapRuns(steps); runs > 2 {
		t.Errorf("affine alignment has %d gap runs, want <= 2: %v", runs, steps)
	}
	if countOps(steps)[OpMatch] != 8 {
		t.Errorf("all core symbols should match: %v", steps)
	}
}

// gotohVsNWCase checks the sound form of "affine is never worse than NW":
// Gotoh is optimal under its own scoring, so its path scores at least as
// well as NW's path re-scored under the same affine scheme, and exactly as
// well as the exhaustive optimum. Symbols compare modulo 4, so random bytes
// produce plenty of matches.
func gotohVsNWCase(aRaw, bRaw []byte, sc AffineScoring) error {
	a, b := bytesMod(aRaw, 4, len(aRaw)), bytesMod(bRaw, 4, len(bRaw))
	nw := NeedlemanWunschCodes(a, b, DefaultScoring)
	gt := GotohCodes(a, b, sc)
	if !Validate(gt, len(a), len(b)) {
		return fmt.Errorf("invalid gotoh alignment %v", gt)
	}
	got, nwScore := AffineScore(gt, sc), AffineScore(nw, sc)
	if got < nwScore {
		return fmt.Errorf("gotoh affine score %d below NW path's %d", got, nwScore)
	}
	if want := slowAffineScore(a, b, sc); got != want {
		return fmt.Errorf("gotoh affine score %d, exhaustive optimum %d", got, want)
	}
	return nil
}

// TestGotohScoresAtLeastNWPath replaces an earlier claim that Gotoh never
// produces more than one extra gap run than NW after mismatch
// decomposition. That claim is false — fewer gap runs is what affine
// penalties favour, not what they guarantee once mismatches are split into
// gap pairs — and the pinned case below refutes it (6 runs against NW's
// 4) while Gotoh still scores better (-8 against -9). The property checked
// instead is optimality, on seeded random inputs.
func TestGotohScoresAtLeastNWPath(t *testing.T) {
	sc := AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1}
	pinnedA := []byte{0, 2, 2, 1, 1, 3, 2, 3, 0, 1, 2}
	pinnedB := []byte{0, 3, 0, 3, 2, 3, 1, 0, 2, 3, 2, 1, 2, 3, 2, 3, 3, 2}
	if err := gotohVsNWCase(pinnedA, pinnedB, sc); err != nil {
		t.Fatalf("pinned case: %v", err)
	}
	f := func(a, b []byte) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		if err := gotohVsNWCase(a, b, sc); err != nil {
			t.Logf("a=%v b=%v: %v", a, b, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGotohAlignerAdapter(t *testing.T) {
	steps := GotohAlignerCodes(str("abc"), str("abc"), DefaultScoring)
	if !Validate(steps, 3, 3) || countOps(steps)[OpMatch] != 3 {
		t.Errorf("adapter misaligned identical input: %v", steps)
	}
}

func BenchmarkGotoh500(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	s1 := randSeq(r, 500, "abcdefgh")
	s2 := randSeq(r, 500, "abcdefgh")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GotohCodes(s1, s2, DefaultAffineScoring)
	}
}
