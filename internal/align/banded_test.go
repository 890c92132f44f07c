package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBandedValidAlignments(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 150; iter++ {
		a := randSeq(r, r.Intn(30), "abcd")
		b := randSeq(r, r.Intn(30), "abcd")
		for _, band := range []int{1, 3, 8, 100} {
			steps := BandedCodes(a, b, DefaultScoring, band)
			if !Validate(steps, len(a), len(b)) {
				t.Fatalf("invalid banded(%d) alignment of %v, %v: %v", band, a, b, steps)
			}
		}
	}
}

func TestBandedWideBandIsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for iter := 0; iter < 100; iter++ {
		a := randSeq(r, r.Intn(20), "abc")
		b := randSeq(r, r.Intn(20), "abc")
		wide := BandedCodes(a, b, DefaultScoring, 64)
		ref := refNW(a, b, DefaultScoring)
		if Score(wide, DefaultScoring) != Score(ref, DefaultScoring) {
			t.Fatalf("wide band not optimal for %v, %v: %d vs %d",
				a, b, Score(wide, DefaultScoring), Score(ref, DefaultScoring))
		}
	}
}

func TestBandedNeverBeatsOptimal(t *testing.T) {
	f := func(aRaw, bRaw []byte, bandRaw uint8) bool {
		a, b := bytesMod(aRaw, 4, 30), bytesMod(bRaw, 4, 30)
		band := int(bandRaw%12) + 1
		banded := BandedCodes(a, b, DefaultScoring, band)
		if !Validate(banded, len(a), len(b)) {
			return false
		}
		return Score(banded, DefaultScoring) <= Score(refNW(a, b, DefaultScoring), DefaultScoring)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBandedIdenticalSequences(t *testing.T) {
	// Identical sequences live on the main diagonal: even band 1 recovers
	// the full match.
	s := str("mergemergemerge")
	steps := BandedCodes(s, s, DefaultScoring, 1)
	if countOps(steps)[OpMatch] != len(s) {
		t.Errorf("band-1 failed to match identical sequences: %v", steps)
	}
}

func TestBandedNarrowDegradesGracefully(t *testing.T) {
	// A large shift (prefix insertion) exceeds the band: the result stays
	// valid, just with fewer matches than the optimum.
	a := str("0123456789")
	b := str("XXXXXXXX0123456789")
	narrow := BandedCodes(a, b, DefaultScoring, 9) // just covers diff
	if !Validate(narrow, len(a), len(b)) {
		t.Fatal("invalid narrow alignment")
	}
	ref := refNW(a, b, DefaultScoring)
	if countOps(narrow)[OpMatch] > countOps(ref)[OpMatch] {
		t.Error("banded cannot out-match the optimum")
	}
}

// TestBandedCodesWidening forces the band-widening path: b is a long run of
// junk followed by a copy of a, attacked with band=1. The band widens to
// cover the length difference, which also covers the optimal path, so the
// result must match all of a and score the optimum.
func TestBandedCodesWidening(t *testing.T) {
	a := make([]uint32, 24)
	for i := range a {
		a[i] = uint32(i + 100)
	}
	junk := make([]uint32, 17)
	for i := range junk {
		junk[i] = 7
	}
	b := append(append([]uint32{}, junk...), a...)
	got := BandedAlignerCodes(1)(a, b, DefaultScoring)
	if !Validate(got, len(a), len(b)) {
		t.Fatalf("widened band produced an invalid alignment: %v", got)
	}
	if m := countOps(got)[OpMatch]; m != len(a) {
		t.Errorf("widened band matched %d of %d entries", m, len(a))
	}
	if gs, rs := Score(got, DefaultScoring), Score(refNW(a, b, DefaultScoring), DefaultScoring); gs != rs {
		t.Errorf("widened band scored %d, optimum %d", gs, rs)
	}
}

func TestBandedAligner(t *testing.T) {
	fn := BandedAlignerCodes(16)
	steps := fn(str("abca"), str("abca"), DefaultScoring)
	if countOps(steps)[OpMatch] != 4 {
		t.Errorf("adapter misaligned: %v", steps)
	}
}

func BenchmarkBanded500(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	s1 := randSeq(r, 500, "abcdefgh")
	s2 := randSeq(r, 500, "abcdefgh")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BandedCodes(s1, s2, DefaultScoring, 32)
	}
}
