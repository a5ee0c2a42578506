package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// rank is the 1-based nearest-rank index of percentile p among n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supportedTail returns the highest percentile of the ladder that has at
// least ten samples beyond it among n samples, or 0 when not even the
// median does. A tail read from fewer samples than that is one or two
// outliers, not a percentile.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of xs (xs is sorted
// in place). It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// us converts durations to float microseconds.
func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// timing is a latency distribution: the median, the p90 and the p99,
// with the sample count. P99 is NaN unless at least ten samples lie
// beyond it.
type timing struct {
	N             int
	P50, P90, P99 float64
}

// summarize builds a timing from samples in any unit.
func summarize(xs []float64) timing {
	cp := append([]float64(nil), xs...)
	t := timing{N: len(xs), P50: percentile(cp, 50), P90: percentile(cp, 90), P99: math.NaN()}
	if supportedTail(len(xs)) >= 99 {
		t.P99 = percentile(cp, 99)
	}
	return t
}
