package main

import (
	"math"
	"sort"
)

// fastestSliceComposite is the host-time estimator for a deterministic
// simulation run K times: slice j is the same work in every repetition,
// so the time the work needs is the fastest any repetition did it in,
// and the run's time is the sum of those minima. One descheduled
// repetition then spoils only its own slices instead of a whole sample.
//
// t[i][j] is repetition i's time for slice j; every row has the same
// length. spread is the median over slices of max_i/min_i — how noisy
// the box was while the run was taken.
func fastestSliceComposite(t [][]float64) (total, spread float64) {
	if len(t) == 0 || len(t[0]) == 0 {
		return 0, 0
	}
	ratios := make([]float64, 0, len(t[0]))
	for j := range t[0] {
		lo, hi := t[0][j], t[0][j]
		for i := 1; i < len(t); i++ {
			lo = math.Min(lo, t[i][j])
			hi = math.Max(hi, t[i][j])
		}
		total += lo
		if lo > 0 {
			ratios = append(ratios, hi/lo)
		}
	}
	return total, median(ratios)
}

// exactQuantile returns the nearest-rank q-quantile of the samples: the
// smallest sample with at least a q share of the samples at or below
// it. It sorts a copy; no interpolation, no buckets.
func exactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the middle two.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func minOf(samples []float64) float64 {
	m := math.Inf(1)
	for _, v := range samples {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(samples []float64) float64 {
	m := math.Inf(-1)
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
