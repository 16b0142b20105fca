package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations and answers mean / percentile /
// CDF queries. It keeps all samples (experiments here are at most a few
// hundred thousand jobs), trading memory for exact percentiles.
// The zero value is ready to use.
type Summary struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation. While the samples are in order — an order
// query has run since the last unordered Add — the new one is inserted in
// place (binary search and a copy), so a caller that alternates Add with
// Percentile, as the speculation monitor does on every task completion,
// never re-sorts its whole history; a caller that adds in bulk and then
// queries still pays one sort. The multiset, and so every answer, is the
// same either way.
func (s *Summary) Add(x float64) {
	s.sum += x
	if !s.sorted || x != x { // NaN sorts first; leave it to the sort
		s.xs = append(s.xs, x)
		s.sorted = false
		return
	}
	i := sort.SearchFloat64s(s.xs, x)
	s.xs = append(s.xs, 0)
	copy(s.xs[i+1:], s.xs[i:])
	s.xs[i] = x
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.xs) }

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or NaN with no observations.
func (s *Summary) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.xs))
}

func (s *Summary) sortIfNeeded() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. NaN with no observations.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	s.sortIfNeeded()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// Min returns the smallest observation, or NaN with none.
func (s *Summary) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sortIfNeeded()
	return s.xs[0]
}

// Max returns the largest observation, or NaN with none.
func (s *Summary) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sortIfNeeded()
	return s.xs[len(s.xs)-1]
}

// CDF returns the empirical CDF evaluated at each of the given points:
// the fraction of observations <= x.
func (s *Summary) CDF(points []float64) []float64 {
	s.sortIfNeeded()
	out := make([]float64, len(points))
	for i, x := range points {
		out[i] = float64(sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))) / float64(len(s.xs))
	}
	return out
}

// Values returns a copy of the observations in sorted order.
func (s *Summary) Values() []float64 {
	s.sortIfNeeded()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Welford is a streaming mean/variance accumulator (Welford's algorithm).
// Unlike Summary it stores O(1) state; used for high-volume streams such
// as per-message latencies. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN with no observations).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (NaN with <2 observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Median returns the median of five runs' worth of scalars, the paper's
// reporting convention ("repeated five times and we report the median").
// It works for any odd or even count: even counts average the central two.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative weights are treated as
// zero. If all weights are zero it falls back to uniform choice.
// rng-driven rather than crypto; simulation determinism is the point.
func WeightedChoice(rng interface{ Float64() float64 }, weights []float64) int {
	if len(weights) == 0 {
		panic("stats: WeightedChoice with no weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return int(rng.Float64() * float64(len(weights)))
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
