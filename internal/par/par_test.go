package par

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEachIndexOnce pins the loop's contract for serial, parallel
// and oversubscribed worker counts, including the empty range.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{0, 1, 3, 200} {
			hits := make([]int32, n)
			For(n, w, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestWorkersResolvesZero(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("non-positive knob must resolve to at least one worker")
	}
}
