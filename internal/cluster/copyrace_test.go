package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// TestCopyRaceMatchesParetoMinimum checks ExecModel's copy race against
// its closed form. The minimum of k iid Pareto(x_m, β) draws is
// Pareto(x_m, kβ), with mean x_m·kβ/(kβ−1), where x_m = (β−1)/β × mean.
// At β = 1.5 and mean 1 that is 1, 1/2, 3/7 and 2/5 for k = 1…4: two
// clones cost exactly one copy's expected slot-time (2·E[min₂] = E[X]),
// three cost 9/7 of it.
//
// Each task's k copies are attempts 0…k−1 of CopyDuration's keyed
// streams, with local placement, no remote penalty and no machine
// stragglers, 100,000 tasks per seed. The seeds are drawn from one
// source rather than taken adjacent, because CopySource mixes nearby
// seeds poorly (nearby seeds share most of their draws).
//
// Bounds: for k ≥ 2 the minimum has finite variance, and over ten such
// seeds the widest reading was 0.28 % (k = 2; its standard error is
// about 0.18 %), so 1 % is more than five standard errors. At k = 1 the
// variance is infinite at β = 1.5 and the sample mean converges slowly:
// the same ten seeds read −4.1 … +4.8 %, so k = 1 gets 10 %, a check on
// the scale x_m rather than an oracle.
func TestCopyRaceMatchesParetoMinimum(t *testing.T) {
	const (
		beta  = 1.5
		tasks = 100000
	)
	em := ExecModel{Beta: beta, RemotePenalty: 1}
	xm := (beta - 1) / beta
	bound := [...]float64{0.10, 0.01, 0.01, 0.01}
	seeds := rand.New(rand.NewSource(21))
	for s := 0; s < 5; s++ {
		seed := seeds.Int63()
		src := NewCopySource(seed)
		job := mkJob(0, 1, 1)
		tk := job.Phases[0].Tasks[0]
		var sum [len(bound)]float64         // of each task's minimum over its first k+1 copies
		copies := make([]*Copy, len(bound)) // CopyDuration draws attempt len(tk.Copies)
		for id := 0; id < tasks; id++ {
			job.ID = JobID(id)
			minimum := math.Inf(1)
			for k := range sum {
				tk.Copies = copies[:k]
				minimum = math.Min(minimum, em.CopyDuration(src, tk, true, 1))
				sum[k] += minimum
			}
		}
		for k := range sum {
			kb := float64(k+1) * beta
			want := xm * kb / (kb - 1)
			if got := sum[k] / tasks; math.Abs(got/want-1) > bound[k] {
				t.Errorf("seed %d: E[min of %d copies] = %.5f, closed form %.5f (%+.2f %%, bound %.0f %%)",
					seed, k+1, got, want, (got/want-1)*100, bound[k]*100)
			}
		}
	}
}
