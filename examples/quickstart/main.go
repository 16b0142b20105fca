// Quickstart: simulate a small cluster under centralized Hopper and SRPT
// and compare average job completion times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/experiments"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

func main() {
	// The paper's deployment: 200 machines with 16 slots each, heavy-tailed
	// service times and machine-level interference.
	spec := experiments.Prototype200()

	// A Facebook-like interactive workload at 70% offered load.
	prof := workload.Sparkify(workload.Facebook())
	trace := experiments.GenTrace(prof, 2500, 0.7, spec, 42)
	fmt.Printf("generated %d jobs, %.0f slot-seconds of work, offered load %.2f\n",
		len(trace.Jobs), trace.TotalWork, trace.OfferedLoad)

	// Replay the identical trace under both centralized engines.
	srpt := experiments.RunTrace(
		func(eng *simulator.Engine, exec *cluster.Executor) experiments.Arriver {
			return scheduler.NewSRPT(eng, exec, scheduler.Config{CheckInterval: 0.1})
		}, spec, experiments.CloneJobs(trace.Jobs), 7)
	hopper := experiments.RunTrace(
		func(eng *simulator.Engine, exec *cluster.Executor) experiments.Arriver {
			return scheduler.NewHopper(eng, exec, scheduler.Config{CheckInterval: 0.1})
		}, spec, experiments.CloneJobs(trace.Jobs), 7)

	fmt.Printf("SRPT + best-effort LATE : avg completion %.2fs\n", srpt.Run.AvgCompletion())
	fmt.Printf("Hopper                  : avg completion %.2fs (%d spec copies, %d killed)\n",
		hopper.Run.AvgCompletion(), hopper.Exec.SpeculativeCopies, hopper.Exec.CopiesKilled)
	fmt.Printf("reduction vs SRPT: %.1f%%\n", metrics.GainBetween(srpt.Run, hopper.Run))
	fmt.Printf("speculative resource share under Hopper: %.0f%% (paper reports 21%% in production)\n",
		hopper.Exec.SpeculationWasteFraction()*100)
}
