package live

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
)

// The parity workload: the scripted jobs every chaos cell replays on the
// shipped nodes. It once drove a sim-vs-live assignment-log comparison;
// the two planes do not hand out one sequence (DESIGN.md §7, "The parity
// contract"), so the live nodes are pinned by their own frame-log golden
// and the bridge by TestBridgeRoundTrip.

// parityCfg is the protocol configuration of the chaos cells' nodes.
var parityCfg = decentral.Config{
	Mode:          decentral.ModeHopper,
	NumSchedulers: 3,
	CheckInterval: 0.1,
}

// scriptedDuration is the shared deterministic service-time script:
// every fifth original task straggles hard; re-draws (speculative
// copies) and other tasks are fast. This forces the speculation path —
// wants queues, capacity-driven victims, copy races, kills — through
// the nodes.
func scriptedDuration(t *cluster.Task, spec bool) float64 {
	if !spec && len(t.Copies) == 0 && t.Index%5 == 0 {
		return 8 * t.Phase.MeanTaskDuration
	}
	return 0.6 * t.Phase.MeanTaskDuration
}

// parityJobs builds the workload fresh for each run (a hetero cell sets
// demands on it): multi-phase DAGs with transfer gating, replica locality,
// and arrivals spread enough to exercise both load regimes.
func parityJobs(nMachines int) []*cluster.Job {
	mkPhase := func(tasks int, mean float64) *cluster.Phase {
		p := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, tasks)}
		for i := range p.Tasks {
			p.Tasks[i] = &cluster.Task{}
		}
		return p
	}
	var jobs []*cluster.Job
	for i := 0; i < 12; i++ {
		size := 3 + (i*5)%14
		p0 := mkPhase(size, 1.0)
		for k, t := range p0.Tasks {
			t.Replicas = []cluster.MachineID{
				cluster.MachineID((i + k) % nMachines),
				cluster.MachineID((i + k + 3) % nMachines),
			}
		}
		phases := []*cluster.Phase{p0}
		if i%2 == 0 {
			p1 := mkPhase(max(1, size/2), 0.8)
			p1.Deps = []int{0}
			p1.TransferWork = 0.5 * float64(size)
			phases = append(phases, p1)
		}
		if i%4 == 0 {
			// Transfer-gated tail plus an independent arm off the root: the
			// arm completes while the tail's wakeup is in flight — the
			// double-fire regime the exactly-once lifecycle must absorb.
			p2 := mkPhase(1, 0.5)
			p2.Deps = []int{len(phases) - 1}
			p2.TransferWork = 2.0
			phases = append(phases, p2)
			p3 := mkPhase(2, 1.2)
			p3.Deps = []int{0}
			phases = append(phases, p3)
		}
		name := ""
		if i%3 == 0 {
			name = "fam-a" // recurring family: exercises the alpha estimator
		}
		jobs = append(jobs, cluster.NewJob(cluster.JobID(i), name, float64(i)*0.7, phases))
	}
	return jobs
}
