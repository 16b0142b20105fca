package estimate

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/stats"
)

// mkDAG builds a 2-phase chain job in the given family with the given
// transfer work.
func mkDAG(id cluster.JobID, family string, upTasks, downTasks int, transfer float64) *cluster.Job {
	up := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, upTasks)}
	down := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, downTasks),
		Deps: []int{0}, TransferWork: transfer}
	for i := range up.Tasks {
		up.Tasks[i] = &cluster.Task{}
	}
	for i := range down.Tasks {
		down.Tasks[i] = &cluster.Task{}
	}
	return cluster.NewJob(id, family, 0, []*cluster.Phase{up, down})
}

func TestSinglePhaseJobAlphaOne(t *testing.T) {
	a := NewAlphaEstimator()
	ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: []*cluster.Task{{}}}
	j := cluster.NewJob(1, "f", 0, []*cluster.Phase{ph})
	j.Phases[0].MarkRunnable()
	alpha, dv := a.Evaluate(j, 1.5)
	if alpha != 1 || dv != 0 {
		t.Fatalf("single-phase alpha=%v dv=%v, want 1, 0", alpha, dv)
	}
}

func TestAlphaRatioMatchesTransferWork(t *testing.T) {
	a := NewAlphaEstimator()
	// 10 upstream tasks x 1s = 10 slot-s of compute; transfer 20 slot-s
	// -> alpha = 2 at the start of the upstream phase.
	j := mkDAG(1, "", 10, 4, 20)
	j.Phases[0].MarkRunnable()
	alpha, dv := a.Evaluate(j, 2.0)
	if alpha < 1.9 || alpha > 2.1 {
		t.Fatalf("alpha = %v, want ~2", alpha)
	}
	if dv <= 0 {
		t.Fatalf("downstream virtual = %v, want > 0", dv)
	}
}

func TestAlphaClamped(t *testing.T) {
	a := NewAlphaEstimator()
	j := mkDAG(1, "", 1, 1, 1e6)
	j.Phases[0].MarkRunnable()
	alpha, _ := a.Evaluate(j, 1.5)
	if alpha > 10 {
		t.Fatalf("alpha %v above clamp", alpha)
	}
	j2 := mkDAG(2, "", 1000, 1, 1e-9)
	j2.Phases[0].MarkRunnable()
	alpha2, _ := a.Evaluate(j2, 1.5)
	if alpha2 < 0.1 {
		t.Fatalf("alpha %v below clamp", alpha2)
	}
}

func TestFamilyLearningImprovesOverOracle(t *testing.T) {
	a := NewAlphaEstimator()
	// Train on two completed jobs of the family.
	a.JobCompleted(mkDAG(1, "fam", 10, 4, 18))
	a.JobCompleted(mkDAG(2, "fam", 10, 4, 22))
	// A running job of the same family with a different realized
	// transfer gets the learned estimate, not the oracle.
	j := mkDAG(3, "fam", 10, 4, 30)
	j.Phases[0].MarkRunnable()
	before := a.OracleFallbacks
	alpha, _ := a.Evaluate(j, 2.0)
	if a.OracleFallbacks != before {
		t.Fatal("family estimate should not hit the oracle")
	}
	// EWMA of 18 then 22 with weight 0.5 -> 20; alpha = 20/10 = 2.
	if alpha < 1.8 || alpha > 2.2 {
		t.Fatalf("learned alpha = %v, want ~2", alpha)
	}
	if a.Err == (stats.Welford{}) {
		t.Fatal("estimation error not tracked")
	}
}

func TestUnknownFamilyFallsBackToOracle(t *testing.T) {
	a := NewAlphaEstimator()
	j := mkDAG(1, "newfam", 10, 4, 20)
	j.Phases[0].MarkRunnable()
	alpha, _ := a.Evaluate(j, 2.0)
	if a.OracleFallbacks == 0 {
		t.Fatal("expected oracle fallback for unseen family")
	}
	if alpha < 1.9 || alpha > 2.1 {
		t.Fatalf("oracle alpha = %v, want ~2", alpha)
	}
}

func TestAlphaIgnoresCompletedDownstream(t *testing.T) {
	a := NewAlphaEstimator()
	j := mkDAG(1, "", 4, 2, 10)
	// Run the upstream phase to completion: its last task unlocks the
	// downstream phase, the "current" phase now, with no further
	// downstream -> alpha 1.
	j.Phases[0].MarkRunnable()
	var unlocks []cluster.PhaseUnlock
	for _, task := range j.Phases[0].Tasks {
		task.Win(task.StartCopy(0, 0, false, 1), 1, nil)
		_, unlocks = j.CompleteTask(task, 1, unlocks)
	}
	for _, u := range unlocks {
		u.Phase.MarkRunnable()
	}
	if rp := j.RunnablePhases(); len(rp) != 1 || rp[0] != j.Phases[1] {
		t.Fatalf("runnable phases %v, want the downstream phase alone", rp)
	}
	alpha, dv := a.Evaluate(j, 1.5)
	if alpha != 1 && dv != 0 {
		// With only the last phase runnable there is no downstream left.
		t.Fatalf("tail phase alpha=%v dv=%v", alpha, dv)
	}
}

func TestStringSummary(t *testing.T) {
	a := NewAlphaEstimator()
	if s := a.String(); s == "" {
		t.Fatal("empty summary")
	}
}

// mkFanOut builds a job in the given family: a 4-task source phase
// (runnable) feeding one 2-task downstream phase per transfer size.
func mkFanOut(id cluster.JobID, family string, transfers ...float64) *cluster.Job {
	phases := []*cluster.Phase{{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, 4)}}
	for _, tw := range transfers {
		phases = append(phases, &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, 2),
			Deps: []int{0}, TransferWork: tw})
	}
	for _, p := range phases {
		for i := range p.Tasks {
			p.Tasks[i] = &cluster.Task{}
		}
	}
	j := cluster.NewJob(id, family, 0, phases)
	j.Phases[0].MarkRunnable()
	return j
}

// TestAlphaCountsPerDownstreamPhase pins what Evaluate counts: one
// estimate per call, and per downstream phase either one error sample (a
// learned size with a nonzero truth) or one oracle fallback (no history
// for the family, or none for that phase).
func TestAlphaCountsPerDownstreamPhase(t *testing.T) {
	a := NewAlphaEstimator()
	a.JobCompleted(mkFanOut(1, "fam", 12, 0, 24))
	check := func(what string, estimates, fallbacks, errN int, errMean float64) {
		t.Helper()
		var err stats.Welford // errN samples of errMean
		for range errN {
			err.Add(errMean)
		}
		if a.Estimates != estimates || a.OracleFallbacks != fallbacks || a.Err != err {
			t.Fatalf("%s: Estimates %d OracleFallbacks %d Err %+v, want %d %d %+v",
				what, a.Estimates, a.OracleFallbacks, a.Err, estimates, fallbacks, err)
		}
	}
	// Learned: |12−10|/10 and |24−30|/30 are both 0.2; the zero-transfer
	// phase is estimated but has no truth to score against.
	a.Evaluate(mkFanOut(2, "fam", 10, 0, 30), 1.5)
	check("learned family", 1, 0, 2, 0.2)
	a.Evaluate(mkFanOut(3, "newfam", 10, 0, 30), 1.5)
	check("unknown family", 2, 3, 2, 0.2)
	// A longer DAG of the learned family: the fourth downstream phase has
	// no history.
	a.Evaluate(mkFanOut(4, "fam", 10, 0, 30, 5), 1.5)
	check("learned family, one phase beyond its history", 3, 4, 4, 0.2)
}
