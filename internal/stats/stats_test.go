package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean of empty must be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 4}), 2) {
		t.Errorf("GeoMean = %v, want 2", GeoMean([]float64{1, 4}))
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean of empty must be 0")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Min(xs) != 1 || Max(xs) != 9 {
		t.Error("Min/Max wrong")
	}
	if !almost(Median(xs), 4) {
		t.Errorf("Median = %v, want 4", Median(xs))
	}
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median wrong")
	}
}

func TestCDF(t *testing.T) {
	// Fig. 8-like data: 89% at rank 1, the rest spread.
	positions := []int{1, 1, 1, 1, 1, 1, 1, 1, 2, 5}
	cdf := CDF(positions, 10)
	if len(cdf) != 10 {
		t.Fatalf("CDF length = %d, want 10", len(cdf))
	}
	if !almost(cdf[0], 80) {
		t.Errorf("coverage at rank 1 = %v, want 80", cdf[0])
	}
	if !almost(cdf[1], 90) {
		t.Errorf("coverage at rank 2 = %v, want 90", cdf[1])
	}
	if !almost(cdf[4], 100) || !almost(cdf[9], 100) {
		t.Error("coverage must reach 100 at rank 5")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		positions := make([]int, len(raw))
		for i, r := range raw {
			positions[i] = int(r%12) + 1 // some exceed maxPos
		}
		cdf := CDF(positions, 10)
		prev := 0.0
		for _, v := range cdf {
			if v < prev || v > 100.0000001 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(45))}); err != nil {
		t.Error(err)
	}
}

func TestCDFEmpty(t *testing.T) {
	cdf := CDF(nil, 5)
	for _, v := range cdf {
		if v != 0 {
			t.Error("empty CDF must be all zeros")
		}
	}
}
