// DAG pipeline: demonstrates multi-phase jobs with pipelined transfers,
// the alpha (communication/computation) weighting of Section 4.2, and the
// online alpha estimator learning from recurring jobs (Section 6.3).
//
//	go run ./examples/dagpipeline
package main

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/estimate"
	"github.com/hopper-sim/hopper/internal/experiments"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

func main() {
	spec := experiments.ClusterSpec{
		Machines:        40,
		SlotsPerMachine: 4,
		Exec:            cluster.DefaultExecModel(),
	}

	// A communication-heavy recurring workload: long DAGs, big shuffles.
	prof := workload.Facebook()
	prof.MeanTaskDur = 2
	prof.TransferRatio = 1.5
	prof.DAGLenWeights = []float64{0, 0.3, 0.3, 0.2, 0.1, 0.1}
	prof.RecurringFraction = 0.8
	prof.JobSizeCap = 200
	trace := experiments.GenTrace(prof, 250, 0.7, spec, 11)

	dagCount := map[int]int{}
	for _, j := range trace.Jobs {
		dagCount[len(j.Phases)]++
	}
	fmt.Println("DAG length distribution of the generated trace:")
	for l := 1; l <= 8; l++ {
		if dagCount[l] > 0 {
			fmt.Printf("  %d phases: %d jobs\n", l, dagCount[l])
		}
	}

	// Run under Hopper and inspect the alpha estimator's learning.
	var alphaEst *estimate.AlphaEstimator
	kind := func(eng *simulator.Engine, exec *cluster.Executor) experiments.Arriver {
		h := scheduler.NewHopper(eng, exec, scheduler.Config{CheckInterval: 0.2})
		alphaEst = h.Book.Alpha
		return h
	}
	res := experiments.RunTrace(kind, spec, experiments.CloneJobs(trace.Jobs), 3)

	fmt.Printf("\nall %d jobs completed; avg completion %.2fs\n",
		len(res.Run.Jobs), res.Run.AvgCompletion())
	fmt.Println(alphaEst)
	fmt.Printf("estimation error (mean relative): %.1f%%  — the paper reports 92%% accuracy\n",
		alphaEst.Err.Mean()*100)

	// Show a single job's alpha trajectory for intuition.
	eng := simulator.New(5)
	ms := cluster.NewMachines(40, 4)
	exec := cluster.NewExecutor(eng, ms, spec.Exec)
	_ = exec
	job := trace.Jobs[0]
	fmt.Printf("\nexample job %d (%d phases):\n", job.ID, len(job.Phases))
	for _, p := range job.Phases {
		fmt.Printf("  phase %d: %4d tasks x %.1fs compute, transfer-in %.0f slot-s\n",
			p.Index, len(p.Tasks), p.MeanTaskDuration, p.TransferWork)
	}
}
