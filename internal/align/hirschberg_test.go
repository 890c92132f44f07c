package align

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHirschbergCodedTwinProperty is the core property of the linear-space
// variant: on random sequences its alignments are valid and score-optimal,
// scoring exactly what its full-matrix twin — the reference NW — scores.
// The two may pick different co-optimal paths, so scores are compared, not
// steps.
func TestHirschbergCodedTwinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(70)
		m := rng.Intn(70)
		alphabet := 2 + rng.Intn(6)
		a := randCodes(rng, n, alphabet)
		b := randCodes(rng, m, alphabet)

		h := HirschbergCodes(a, b, DefaultScoring)
		if !Validate(h, n, m) {
			t.Fatalf("trial %d: invalid Hirschberg alignment (n=%d m=%d)", trial, n, m)
		}
		ref := refNW(a, b, DefaultScoring)
		if hs, rs := Score(h, DefaultScoring), Score(ref, DefaultScoring); hs != rs {
			t.Fatalf("trial %d: Hirschberg score %d != reference NW score %d (n=%d m=%d)",
				trial, hs, rs, n, m)
		}
	}
}

// TestHirschbergPooledBuffersConcurrent runs many alignments concurrently so
// the sync.Pool scratch rows are constantly recycled across goroutines; under
// -race this catches any sharing of a pooled buffer between two live
// alignments, and the score check catches reuse of stale row contents.
// Workers alternate between the two pooled kernels so Hirschberg's rows and
// Needleman–Wunsch's rows and direction matrix trade places in the pools.
func TestHirschbergPooledBuffersConcurrent(t *testing.T) {
	type job struct {
		a, b []uint32
		want int
	}
	rng := rand.New(rand.NewSource(31))
	jobs := make([]job, 48)
	for i := range jobs {
		a := randCodes(rng, 20+rng.Intn(60), 4)
		b := randCodes(rng, 20+rng.Intn(60), 4)
		jobs[i] = job{a: a, b: b, want: Score(refNW(a, b, DefaultScoring), DefaultScoring)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, j := range jobs {
					var steps []Step
					if (w+rep)%2 == 0 {
						steps = NeedlemanWunschCodes(j.a, j.b, DefaultScoring)
					} else {
						steps = HirschbergCodes(j.a, j.b, DefaultScoring)
					}
					if !Validate(steps, len(j.a), len(j.b)) {
						t.Errorf("worker %d: invalid alignment", w)
						return
					}
					if got := Score(steps, DefaultScoring); got != j.want {
						t.Errorf("worker %d: score %d, want %d (stale pooled row?)", w, got, j.want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHirschbergDegenerate pins the base cases the recursion bottoms out on.
func TestHirschbergDegenerate(t *testing.T) {
	cases := []struct{ a, b []uint32 }{
		{nil, nil},
		{[]uint32{1}, nil},
		{nil, []uint32{1, 2, 3}},
		{[]uint32{1}, []uint32{1}},
		{[]uint32{1}, []uint32{2, 1, 2}},
		{[]uint32{5, 5, 5}, []uint32{5}},
	}
	for _, c := range cases {
		h := HirschbergCodes(c.a, c.b, DefaultScoring)
		if !Validate(h, len(c.a), len(c.b)) {
			t.Errorf("invalid alignment for %v vs %v", c.a, c.b)
		}
		if hs, rs := Score(h, DefaultScoring), Score(refNW(c.a, c.b, DefaultScoring), DefaultScoring); hs != rs {
			t.Errorf("score %d, reference %d for %v vs %v", hs, rs, c.a, c.b)
		}
	}
}
