package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p of the samples at or below it. It is
// computed over the raw samples, never interpolated. An empty slice
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before the percentile is reported as supported.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond of them
// beyond the p-quantile's rank — the rule for the highest percentile a
// sample can carry.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0: the per-dispatch and per-event
// quotients read 0 on a workload that never exercised the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
