package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refreshStep is one refresh of a replayed sequence: the demand set, and
// which job of the previous set finished before it (the new set's last
// job is the one that arrived).
type refreshStep struct {
	jobs     []JobDemand
	finished int
}

// refreshSequence builds steps refreshes over about n active jobs shaped
// like the centralized engine's on its pinned replay (4000×4 slots): per
// step one job finishes and one arrives, and three jobs finish a task or
// a few. Remaining counts are heavy-tailed (1 to about 150, mean ≈ 30), so
// at n ≈ 150 the set fits the cluster (the proportional regime, with
// projection rounds at ε = 0.1) and at n ≈ 530 it does not (the
// constrained regime); one job in ten is ordered by its downstream work.
func refreshSequence(n, steps int, seed int64) (first []JobDemand, seq []refreshStep) {
	rng := rand.New(rand.NewSource(seed))
	newJob := func() JobDemand {
		r := 1 + int(math.Exp(rng.Float64()*5))
		j := JobDemand{Remaining: r, Alpha: 1, MaxUsable: 2 * r}
		if rng.Intn(10) == 0 {
			j.DownstreamVirtual = float64(rng.Intn(4 * r))
		}
		return j
	}
	jobs := make([]JobDemand, n)
	for i := range jobs {
		jobs[i] = newJob()
	}
	first = jobs
	for range steps {
		f := rng.Intn(n)
		next := append(append(make([]JobDemand, 0, n), jobs[:f]...), jobs[f+1:]...)
		for range 3 {
			j := &next[rng.Intn(n-1)]
			j.Remaining = max(1, j.Remaining-1-rng.Intn(3))
			j.MaxUsable = 2 * j.Remaining
		}
		next = append(next, newJob())
		seq = append(seq, refreshStep{next, f})
		jobs = next
	}
	return first, seq
}

// BenchmarkAllocatorRefresh replays a sequence of refreshes through one
// Allocator at ε = 0.1 on 16,000 slots, with the hint HopperEngine.refresh
// builds (the previous order without the finished job, renumbered, then
// the arrival) and without a hint. It reports ns/refresh, hint building
// included, and the share of hinted refreshes that fell back to the full
// sort.
func BenchmarkAllocatorRefresh(b *testing.B) {
	const steps, slots = 100, 16000
	for _, n := range []int{150, 530} {
		first, seq := refreshSequence(n, steps, int64(n))
		for _, hinted := range []bool{true, false} {
			b.Run(fmt.Sprintf("n=%d/hinted=%v", n, hinted), func(b *testing.B) {
				var a Allocator
				var hint []int
				a.Allocate(first, slots, 1.5, 0.1, nil)
				start := append([]int(nil), a.Order()...)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					prev := start
					for _, st := range seq {
						if hinted {
							hint = hint[:0]
							for _, i := range prev {
								switch {
								case i < st.finished:
									hint = append(hint, i)
								case i > st.finished:
									hint = append(hint, i-1)
								}
							}
							hint = append(hint, len(st.jobs)-1)
						}
						a.Allocate(st.jobs, slots, 1.5, 0.1, hint)
						prev = a.Order()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/refresh")
				if hinted {
					b.ReportMetric(float64(a.Fallbacks)/float64(a.Hinted), "fallbacks/refresh")
				}
			})
		}
	}
}
