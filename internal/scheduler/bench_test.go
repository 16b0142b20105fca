package scheduler_test

import (
	"runtime"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/experiments"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// BenchmarkCentralDispatch replays one fixed trace — sim-central's shape
// at a quarter of its size: Facebook jobs at util 0.9 on 1000×4 slots,
// CheckInterval 1 — under the Hopper and SRPT engines, and reports ns and
// allocations per placed copy (decision). Trace copying and engine set-up
// are outside the timer; the replay, every dispatch pass included, is
// inside it.
func BenchmarkCentralDispatch(b *testing.B) {
	spec := experiments.ClusterSpec{Machines: 1000, SlotsPerMachine: 4, Exec: cluster.DefaultExecModel()}
	tr := experiments.GenTrace(workload.Facebook(), 175, 0.9, spec, 7001)
	cfg := scheduler.Config{CheckInterval: 1}
	engines := []struct {
		name string
		mk   func(*simulator.Engine, *cluster.Executor) scheduler.Engine
	}{
		{"hopper", func(e *simulator.Engine, x *cluster.Executor) scheduler.Engine { return scheduler.NewHopper(e, x, cfg) }},
		{"srpt", func(e *simulator.Engine, x *cluster.Executor) scheduler.Engine { return scheduler.NewSRPT(e, x, cfg) }},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			var decisions int
			var mallocs uint64
			var ms runtime.MemStats
			for range b.N {
				b.StopTimer()
				eng := simulator.New(7002)
				exec := cluster.NewExecutor(eng, cluster.NewMachines(spec.Machines, spec.SlotsPerMachine), spec.Exec)
				sched := e.mk(eng, exec)
				for _, j := range experiments.CloneJobs(tr.Jobs) {
					eng.Post(j.Arrival, func() { sched.Arrive(j) })
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				eng.Run()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				decisions += exec.CopiesStarted
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
			b.ReportMetric(float64(mallocs)/float64(decisions), "allocs/decision")
		})
	}
}
