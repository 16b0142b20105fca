package scheduler

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/workload"
)

// mkJob builds a single-phase job.
func mkJob(id cluster.JobID, n int, mean float64, arrival float64) *cluster.Job {
	ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	return cluster.NewJob(id, "", arrival, []*cluster.Phase{ph})
}

// runJobs drives the given jobs through an engine until completion.
func runJobs(t *testing.T, eng *simulator.Engine, sched Engine, jobs []*cluster.Job) {
	t.Helper()
	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() { sched.Arrive(j) })
	}
	eng.Run()
	if got := len(sched.Completed()); got != len(jobs) {
		t.Fatalf("%s completed %d of %d jobs", sched.Name(), got, len(jobs))
	}
}

func mkSetup(machines, slots int, seed int64) (*simulator.Engine, *cluster.Executor) {
	eng := simulator.New(seed)
	ms := cluster.NewMachines(machines, slots)
	em := cluster.DefaultExecModel()
	return eng, cluster.NewExecutor(eng, ms, em)
}

func TestAllEnginesCompleteJobs(t *testing.T) {
	mk := map[string]func(eng *simulator.Engine, exec *cluster.Executor) Engine{
		"hopper": func(e *simulator.Engine, x *cluster.Executor) Engine {
			return NewHopper(e, x, Config{CheckInterval: 0.2})
		},
		"srpt": func(e *simulator.Engine, x *cluster.Executor) Engine {
			return NewSRPT(e, x, Config{CheckInterval: 0.2})
		},
		"budgeted": func(e *simulator.Engine, x *cluster.Executor) Engine {
			return NewBudgeted(e, x, Config{CheckInterval: 0.2, SpecBudget: 4})
		},
	}
	for name, f := range mk {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			eng, exec := mkSetup(10, 2, 3)
			sched := f(eng, exec)
			var jobs []*cluster.Job
			for i := 0; i < 12; i++ {
				jobs = append(jobs, mkJob(cluster.JobID(i), 5+i*3, 1.0, float64(i)))
			}
			runJobs(t, eng, sched, jobs)
			if exec.Machines.FreeSlots() != exec.Machines.TotalSlots() {
				t.Fatal("slots leaked")
			}
		})
	}
}

func TestSRPTPrefersSmallJobs(t *testing.T) {
	// A tiny job arriving behind a huge one should finish first under
	// SRPT even though the big job is occupying the cluster.
	eng, exec := mkSetup(4, 2, 5) // 8 slots
	sched := NewSRPT(eng, exec, Config{CheckInterval: 0.5, DisableSpec: true})
	big := mkJob(1, 60, 1.0, 0)
	small := mkJob(2, 3, 1.0, 0.5)
	runJobs(t, eng, sched, []*cluster.Job{big, small})
	if small.DoneAt >= big.DoneAt {
		t.Fatalf("small done at %v, big at %v — SRPT should finish small first",
			small.DoneAt, big.DoneAt)
	}
}

func TestHopperReservesForSpeculation(t *testing.T) {
	// Single straggling job on an otherwise idle cluster must speculate:
	// Hopper's capacity-driven speculation races the straggler without a
	// policy flag.
	eng, exec := mkSetup(8, 1, 7)
	// One task straggles badly.
	exec.DurationOverride = func(task *cluster.Task, spec bool) float64 {
		if task.Index == 0 && !spec {
			return 50
		}
		return 1
	}
	sched := NewHopper(eng, exec, Config{CheckInterval: 0.1})
	j := mkJob(1, 4, 1.0, 0)
	runJobs(t, eng, sched, []*cluster.Job{j})
	if exec.SpeculativeCopies == 0 {
		t.Fatal("Hopper never speculated against a 50x straggler")
	}
	if j.CompletionTime() > 10 {
		t.Fatalf("completion %v — speculation did not clip the 50s straggler", j.CompletionTime())
	}
}

func TestBudgetedReservesSpecPool(t *testing.T) {
	// With a 2-slot budget on a 4-slot cluster, original tasks may only
	// use 2 slots even when the spec pool is idle.
	eng, exec := mkSetup(4, 1, 9)
	exec.DurationOverride = func(task *cluster.Task, spec bool) float64 { return 5 }
	sched := NewBudgeted(eng, exec, Config{CheckInterval: 0.5, SpecBudget: 2})
	j := mkJob(1, 8, 5.0, 0)
	runJobs(t, eng, sched, []*cluster.Job{j})
	// 8 fresh tasks through 2 slots of 5s each = at least 4 waves.
	if j.CompletionTime() < 20 {
		t.Fatalf("completion %v — budget pool was not enforced", j.CompletionTime())
	}
}

func TestHopperFairnessFloorBoundsDeviation(t *testing.T) {
	// The epsilon floor guarantees every job a minimum *allocation*, not
	// a faster completion — the paper notes SRPT-like service often beats
	// fair sharing for every job size. What epsilon~0 must rule out is
	// catastrophic starvation: the large job's completion under a tight
	// floor must stay within a small factor of its completion under
	// epsilon=1, and the small jobs must still finish first-ish.
	mkJobs := func() []*cluster.Job {
		jobs := []*cluster.Job{mkJob(1, 40, 1.0, 0)}
		for i := 2; i <= 5; i++ {
			jobs = append(jobs, mkJob(cluster.JobID(i), 10, 1.0, 0.1))
		}
		return jobs
	}
	eng1, exec1 := mkSetup(4, 2, 13)
	fairish := NewHopper(eng1, exec1, Config{CheckInterval: 0.2, Spec: speculation.Config{Epsilon: 1e-9}})
	jobs1 := mkJobs()
	runJobs(t, eng1, fairish, jobs1)

	eng2, exec2 := mkSetup(4, 2, 13)
	unfair := NewHopper(eng2, exec2, Config{CheckInterval: 0.2, Spec: speculation.Config{Epsilon: 1}})
	jobs2 := mkJobs()
	runJobs(t, eng2, unfair, jobs2)

	big1, big2 := jobs1[0].CompletionTime(), jobs2[0].CompletionTime()
	if big1 > 2*big2 || big2 > 2*big1 {
		t.Fatalf("epsilon swing moved large-job completion by >2x: eps~0 %v vs eps=1 %v", big1, big2)
	}
}

func TestDisableSpecRunsNoCopies(t *testing.T) {
	eng, exec := mkSetup(6, 2, 17)
	sched := NewSRPT(eng, exec, Config{CheckInterval: 0.2, DisableSpec: true})
	jobs := []*cluster.Job{mkJob(1, 30, 1.0, 0)}
	runJobs(t, eng, sched, jobs)
	if exec.SpeculativeCopies != 0 {
		t.Fatalf("%d speculative copies with DisableSpec", exec.SpeculativeCopies)
	}
}

func TestSpecBudgetZeroStallsWithoutPool(t *testing.T) {
	// Budgeted with budget 0 must never speculate.
	eng, exec := mkSetup(6, 2, 19)
	sched := NewBudgeted(eng, exec, Config{CheckInterval: 0.2, SpecBudget: 0})
	jobs := []*cluster.Job{mkJob(1, 30, 1.0, 0)}
	runJobs(t, eng, sched, jobs)
	if exec.SpeculativeCopies != 0 {
		t.Fatalf("%d speculative copies with zero budget", exec.SpeculativeCopies)
	}
}

func TestOnlineBetaLearning(t *testing.T) {
	// After enough completions the engine's estimate should move off the
	// prior toward the execution model's tail index.
	eng, exec := mkSetup(20, 4, 23)
	sched := NewSRPT(eng, exec, Config{CheckInterval: 0.2, Spec: speculation.Config{BetaPrior: 1.9}})
	var jobs []*cluster.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, mkJob(cluster.JobID(i), 40, 1.0, float64(i)))
	}
	runJobs(t, eng, sched, jobs)
	est := sched.Book.Beta.Estimate()
	if est > 1.85 {
		t.Fatalf("beta estimate %v stuck at prior", est)
	}
}

// mkChainJob builds a DAG chain job (each phase depends on the previous).
func mkChainJob(id cluster.JobID, phases, tasksPer int, mean, arrival float64) *cluster.Job {
	ps := make([]*cluster.Phase, phases)
	for pi := range ps {
		ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, tasksPer)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &cluster.Task{}
		}
		if pi > 0 {
			ph.Deps = []int{pi - 1}
			ph.TransferWork = float64(tasksPer) * mean * 0.3
		}
		ps[pi] = ph
	}
	return cluster.NewJob(id, "", arrival, ps)
}

// freshDemandScan recomputes jobState.fresh from the phases — the
// reference implementation and the invariant oracle for the cached
// counter.
func freshDemandScan(s *jobState) int {
	n := 0
	for _, p := range s.Job.RunnablePhasesScan() {
		n += p.UnscheduledTasks()
	}
	return n
}

// belowCapScan recomputes belowCap from the job's tasks — the loop over
// the running set that the counters replaced, and their invariant oracle.
func belowCapScan(s *jobState, maxCopies int) int {
	n := 0
	for _, p := range s.Job.Phases {
		for _, t := range p.Tasks {
			if t.State == cluster.TaskRunning && t.RunningCopies() < maxCopies {
				n++
			}
		}
	}
	return n
}

// TestFreshCounterMatchesScan checks the incremental-state invariant of
// DESIGN.md section 6 on every dispatch pass: the cached fresh-demand
// counter must equal the phase-scan count. The generated workload
// includes bushy DAGs with transfer-gated phase unlocks — the regime in
// which the pre-lifecycle executor double-fired OnPhaseRunnable (a
// sibling phase completed while the wakeup was in flight). Delivery is
// now exactly-once, and the chassis rejects rather than tolerates a
// violation: a second credit panics (Book.PhaseRunnable), so this test
// doubles as an end-to-end exactly-once check.
func TestFreshCounterMatchesScan(t *testing.T) {
	prof := workload.Sparkify(workload.Facebook())
	tr := workload.Generate(workload.Config{Profile: prof, NumJobs: 120, TargetUtilization: 0.8,
		TotalSlots: 480, NumMachines: 120, Seed: 11})
	eng, exec := mkSetup(120, 4, 12)
	h := NewSRPT(eng, exec, Config{CheckInterval: 0.05,
		Spec: speculation.Config{MaxCopies: 3}})
	orig := h.Base.dispatch
	h.Base.dispatch = func() {
		for _, s := range h.active {
			if got, want := s.fresh, freshDemandScan(s); got != want {
				t.Fatalf("job %d: cached fresh=%d, scan=%d at t=%v", s.Job.ID, got, want, eng.Now())
			}
		}
		orig()
	}
	runJobs(t, eng, h, tr.Jobs)
}

// TestAtCapCounterMatchesScan checks the other cached counter of the
// incremental-state contract the same way: on every dispatch pass, the
// count of running tasks still below the copy cap that sizes the Hopper
// engine's hold (the running count minus the maintained at-cap count) must
// equal what the loop it replaced counts — under the default cap, under a
// cap of 3, and under a cap of 1, where every task is at the cap from its
// first copy.
func TestAtCapCounterMatchesScan(t *testing.T) {
	prof := workload.Sparkify(workload.Facebook())
	for _, spec := range []speculation.Config{{}, {MaxCopies: 3}, {MaxCopies: 1}} {
		tr := workload.Generate(workload.Config{Profile: prof, NumJobs: 120, TargetUtilization: 0.8,
			TotalSlots: 480, NumMachines: 120, Seed: 11})
		eng, exec := mkSetup(120, 4, 12)
		h := NewHopper(eng, exec, Config{CheckInterval: 0.05, Spec: spec})
		orig := h.Base.dispatch
		checked, atCap := 0, 0
		h.Base.dispatch = func() {
			for _, s := range h.active {
				if got, want := s.belowCap(), belowCapScan(s, h.Cfg.Spec.MaxCopies); got != want {
					t.Fatalf("%+v job %d: cached below-cap=%d, scan=%d at t=%v", spec, s.Job.ID, got, want, eng.Now())
				}
				checked++
				atCap += s.atCap
			}
			orig()
		}
		runJobs(t, eng, h, tr.Jobs)
		if checked == 0 || atCap == 0 {
			t.Fatalf("%+v: %d checks saw %d tasks at the cap; the invariant is unexercised", spec, checked, atCap)
		}
	}
}

func TestSpecCopiesRespectMaxCopies(t *testing.T) {
	eng, exec := mkSetup(10, 2, 29)
	cfg := Config{CheckInterval: 0.05, Spec: speculation.Config{MaxCopies: 2}}
	sched := NewHopper(eng, exec, cfg)
	jobs := []*cluster.Job{mkJob(1, 12, 1.0, 0)}
	runJobs(t, eng, sched, jobs)
	for _, p := range jobs[0].Phases {
		for _, task := range p.Tasks {
			if len(task.Copies) > 2 {
				t.Fatalf("task %s ran %d copies, cap 2", task.ID(), len(task.Copies))
			}
		}
	}
}

// TestHopperRefreshUsesItsHint: every refresh hands the allocator the
// last refresh's order as a hint, and the hint is close enough to sorted
// that the insertion sort repairs it, falling back to the full sort in
// under 1 % of refreshes. The goldens cannot see this: a hint that always
// fell back, or no hint at all, allocates the same.
func TestHopperRefreshUsesItsHint(t *testing.T) {
	prof := workload.Sparkify(workload.Facebook())
	tr := workload.Generate(workload.Config{Profile: prof, NumJobs: 600, TargetUtilization: 0.95,
		TotalSlots: 800, NumMachines: 200, Seed: 31})
	eng, exec := mkSetup(200, 4, 32)
	h := NewHopper(eng, exec, Config{})
	peak := 0
	arrive := h.Base.onArrive
	h.Base.onArrive = func() { arrive(); peak = max(peak, len(h.active)) }
	runJobs(t, eng, h, tr.Jobs)
	a := &h.allocator
	t.Logf("%d refreshes, %d hinted, %d fell back; peak %d active jobs", a.Calls, a.Hinted, a.Fallbacks, peak)
	if a.Calls <= uint64(len(tr.Jobs)) {
		t.Fatalf("%d refreshes for %d arrivals: the periodic refresh never ran", a.Calls, len(tr.Jobs))
	}
	if a.Hinted != a.Calls {
		t.Errorf("%d of %d refreshes were hinted, want all", a.Hinted, a.Calls)
	}
	if 100*a.Fallbacks >= a.Hinted {
		t.Errorf("%d of %d hinted refreshes fell back to the full sort, want under 1 %%", a.Fallbacks, a.Hinted)
	}
}
