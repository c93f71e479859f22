package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two closest ranks: rank h = (n−1)·q, so the
// median of an even sample is the mean of its middle pair, q = 0 is the
// minimum and q = 1 the maximum. An empty sample gives 0. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q = math.Max(0, math.Min(1, q))
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailSupport is the highest of the percentiles p50, p90, p99 and p99.9
// that keeps at least ten samples beyond it in a sample of n — the
// highest tail the sample can report honestly. It returns 0 when even the
// median lacks ten samples above it.
func tailSupport(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}
