package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"time"
)

// Shared measurement helpers: every experiment that reports a latency
// distribution or a best-of-N wall clock goes through these, so the
// quantile rule and the noise-floor protocol are the same everywhere.

// quantile returns the p-quantile (0 <= p <= 1) of ascending-sorted samples
// by the lower nearest-rank rule, index floor(p·(n−1)); p = 0.5 is the lower
// median. Empty input yields the zero value.
func quantile[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// latencyPercentiles sorts lat in place and returns its p50, p95 and p99 in
// nanoseconds.
func latencyPercentiles(lat []time.Duration) (p50, p95, p99 int64) {
	slices.Sort(lat)
	return quantile(lat, 0.50).Nanoseconds(), quantile(lat, 0.95).Nanoseconds(), quantile(lat, 0.99).Nanoseconds()
}

// medianInt64 returns the lower median of the samples without mutating the
// input.
func medianInt64(samples []int64) int64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func minInt64(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	return slices.Min(samples)
}

// bestOf keeps the fastest of repeated timed runs of identical work from
// identical state: the minimum is the run least distorted by scheduler and
// GC noise — the standard noise-floor estimate for a one-shot measurement.
// Callers that compare configurations interleave their run calls so every
// configuration samples the same machine load.
type bestOf struct {
	min time.Duration
	n   int
}

// run forces a full collection — so allocation debt from earlier work never
// lands inside the window — then times fn and keeps the sample if it is the
// fastest so far.
func (b *bestOf) run(fn func()) {
	runtime.GC()
	start := time.Now()
	fn()
	if d := time.Since(start); b.n == 0 || d < b.min {
		b.min = d
	}
	b.n++
}
