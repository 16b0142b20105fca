// Package stats provides the statistical machinery Hopper depends on:
// Pareto (heavy-tailed) task-duration models, online maximum-likelihood
// estimation of the Pareto tail index beta, streaming summaries, and the
// percentile reducers used by the experiment harness.
//
// Task durations in the production traces the paper studies follow a
// heavy-tailed Pareto distribution with tail index 1 < beta < 2 (paper
// Section 4.1). Hopper's virtual job size is 2/beta times the remaining
// task count, so an accurate, continually updated beta estimate is a core
// substrate, not a reporting afterthought.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Pareto is a Pareto (Type I) distribution with scale Xm > 0 (the minimum
// value) and shape Alpha > 0 (the tail index; the paper calls this beta
// for task durations). Smaller Alpha means a heavier tail and therefore
// more damaging stragglers.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// NewPareto returns a Pareto distribution, panicking on non-positive
// parameters (always a programming error in this codebase).
func NewPareto(xm, alpha float64) Pareto {
	if xm <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("stats: invalid Pareto parameters xm=%v alpha=%v", xm, alpha))
	}
	return Pareto{Xm: xm, Alpha: alpha}
}

// Sample draws one value using rng via inverse-transform sampling.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	// 1-U is uniform on (0,1]; avoids Inf when U == 0.
	u := 1 - rng.Float64()
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// SampleMean draws one value from a Pareto with the given shape whose
// *mean* (not scale) equals mean. This is the natural parameterization for
// task durations: workloads specify the average task length and the tail
// index, and the scale follows. Requires alpha > 1 so the mean exists.
func SampleMean(rng *rand.Rand, mean, alpha float64) float64 {
	if alpha <= 1 {
		panic(fmt.Sprintf("stats: Pareto mean parameterization requires alpha>1, got %v", alpha))
	}
	xm := mean * (alpha - 1) / alpha
	return NewPareto(xm, alpha).Sample(rng)
}

// SplitMix64 is a tiny deterministic rand.Source64 (Steele et al.'s
// SplitMix64 finalizer). Unlike rand.NewSource, whose lagged-Fibonacci
// state costs ~600 words of seeding work, reseeding one is a single
// store — the right tool when simulation code needs a fresh stream keyed
// by an identity hash for every draw (per-copy service times reseed one
// source under a reused *rand.Rand; see cluster.CopySource).
type SplitMix64 uint64

// Uint64 advances the state and returns the next value.
func (s *SplitMix64) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 returns a non-negative 63-bit value (rand.Source interface).
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the state (rand.Source interface).
func (s *SplitMix64) Seed(seed int64) { *s = SplitMix64(seed) }

// TailEstimator is a streaming maximum-likelihood estimator of the Pareto
// tail index. Observations are task durations of completed tasks
// (including straggled ones); the MLE for samples x_i >= xm is
//
//	alpha_hat = n / sum_i ln(x_i / xm)
//
// Hopper learns beta online with exactly this estimator (paper Section 7.2
// reports the estimate error falling under 5% after 6% of jobs complete).
// The zero value is not usable; construct with NewTailEstimator.
type TailEstimator struct {
	xm     float64
	n      int
	logSum float64
	prior  float64 // returned until enough observations arrive
	minN   int
}

// NewTailEstimator returns an estimator that assumes observations are at
// least xm, and reports prior until minSamples observations have arrived.
func NewTailEstimator(xm, prior float64, minSamples int) *TailEstimator {
	if xm <= 0 {
		panic(fmt.Sprintf("stats: TailEstimator xm must be positive, got %v", xm))
	}
	if minSamples < 1 {
		minSamples = 1
	}
	return &TailEstimator{xm: xm, prior: prior, minN: minSamples}
}

// Observe adds one completed-task duration. Values below xm are clamped to
// xm; they contribute zero to the log-sum, biasing the estimate upward
// (lighter tail), which is the conservative direction for Hopper (smaller
// virtual sizes, less speculation headroom).
func (t *TailEstimator) Observe(x float64) {
	if x < t.xm {
		x = t.xm
	}
	t.n++
	t.logSum += math.Log(x / t.xm)
}

// Estimate returns the current tail-index estimate, clamped to (1, 2]
// because Hopper's virtual-size rule 2/beta is derived for the regime the
// traces exhibit (1 < beta < 2); values outside it would make the
// allocation either unbounded or inert.
func (t *TailEstimator) Estimate() float64 {
	if t.n < t.minN || t.logSum == 0 {
		return t.prior
	}
	est := float64(t.n) / t.logSum
	return ClampBeta(est)
}

// ClampBeta clamps a tail-index estimate into the (1, 2] band Hopper's
// analysis assumes. The lower clamp is strictly above 1 so that virtual
// sizes stay finite multiples of remaining work.
func ClampBeta(beta float64) float64 {
	const lo, hi = 1.05, 2.0
	if math.IsNaN(beta) || beta < lo {
		return lo
	}
	if beta > hi {
		return hi
	}
	return beta
}
