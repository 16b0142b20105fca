package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/stats"
)

func init() {
	register("fig3", "Marginal value of slots: completion time vs slots, knee at 2/beta", runFig3)
	register("table1", "Section 3 motivating example: best-effort vs budgeted vs Hopper", runTable1)
}

// runFig3 reproduces Figure 3: a single job of 200 Pareto tasks with LATE
// speculation, run with varying slot counts. Expected shape: completion
// time falls steeply until the slot count reaches the virtual size
// (2/beta x tasks — the vertical line in the paper's figure), and flattens
// beyond it.
func runFig3(h Harness) *Result {
	res := &Result{ID: "fig3", Title: "Completion time vs normalized slots (200-task job)"}
	const tasks = 200
	betas := []float64{1.4, 1.6}
	runs := h.Seeds * 6 // single-job runs are cheap; average more
	ratiosFor := func(beta float64) []float64 {
		return []float64{0.6, 0.8, 1.0, 1.2, 2 / beta, 1.6, 1.8, 2.0, 2.5}
	}
	nRatios := len(ratiosFor(betas[0]))

	// One cell per (beta, ratio, replication) single-job run.
	comps := cells(h, len(betas)*nRatios*runs, func(_ Harness, i int) float64 {
		b, rest := i/(nRatios*runs), i%(nRatios*runs)
		ri, s := rest/runs, rest%runs
		beta := betas[b]
		slots := int(ratiosFor(beta)[ri] * tasks)
		return singleJobCompletion(tasks, beta, slots, int64(300+s))
	})

	for bi, beta := range betas {
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 3 (beta=%.1f): knee expected at %.2f", beta, 2/beta),
			Header: []string{"slots/tasks", "completion (norm)", "marginal gain/slot (ms)"},
		}
		var base float64
		var prev float64
		prevSlots := 0
		for ri, ratio := range ratiosFor(beta) {
			slots := int(ratio * tasks)
			start := (bi*nRatios + ri) * runs
			comp := stats.Median(comps[start : start+runs])
			if base == 0 {
				base = comp
			}
			marginal := 0.0
			if prev > 0 && slots > prevSlots {
				marginal = (prev - comp) / float64(slots-prevSlots) * 1000
			}
			tab.AddF(fmt.Sprintf("%.2f", ratio), comp/base, marginal)
			prev = comp
			prevSlots = slots
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"paper: marginal value of a slot is large and ~constant below the 2/beta knee, small and decreasing above it")
	return res
}

// singleJobCompletion runs one 1-phase job on a dedicated cluster with
// the given slot count under the Hopper engine (which fills its
// allocation with LATE-guided speculation) and returns the completion
// time.
func singleJobCompletion(tasks int, beta float64, slots int, seed int64) float64 {
	eng := simulator.New(seed)
	em := cluster.DefaultExecModel()
	em.Beta = beta
	ms := cluster.NewMachines(slots, 1)
	exec := cluster.NewExecutor(eng, ms, em)
	sched := scheduler.NewHopper(eng, exec, scheduler.Config{
		CheckInterval: 0.05,
		Spec: speculation.Config{
			// Extra slots buy extra racing copies; the knee comes from the
			// capacity threshold, not from an artificial copy cap.
			MaxCopies: 4,
			BetaPrior: beta,
			Epsilon:   1, // single job: fairness moot
		},
	})
	ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, tasks)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	j := cluster.NewJob(1, "fig3", 0, []*cluster.Phase{ph})
	eng.Post(0, func() { sched.Arrive(j) })
	eng.Run()
	if !j.Done() {
		panic("fig3: job did not finish")
	}
	return j.CompletionTime()
}

// runTable1 reproduces the Section 3 motivating example (Figures 1-2,
// Table 1): two jobs, A with 4 tasks and B with 5 tasks, on a 7-slot
// cluster; A4's original copy is a straggler. It compares best-effort
// speculation (SRPT), budgeted speculation (3 reserved slots), and
// Hopper's coordinated allocation, reporting per-job completions and the
// average.
func runTable1(h Harness) *Result {
	res := &Result{ID: "table1", Title: "Section 3 example: coordination beats best-effort and budgeting"}
	tab := &metrics.Table{
		Title:  "Average job completion time (time units; paper: best-effort 25, budgeted 22, Hopper 17)",
		Header: []string{"strategy", "job A", "job B", "average"},
	}

	strats := []string{"best-effort", "budgeted", "hopper"}
	type pair struct{ a, b float64 }
	times := cells(h, len(strats), func(_ Harness, i int) pair {
		a, b := Table1Schedule(strats[i])
		return pair{a, b}
	})
	for i, strat := range strats {
		tab.AddF(strat, times[i].a, times[i].b, (times[i].a+times[i].b)/2)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"simulated with the paper's Table 1 durations: tasks 10s, A4 original 30s, spec copies 10s, straggler detectable at 2s",
		"paper schedules: Figure 1a (best-effort) avg 25; Figure 1b (budgeted) A=12 B=32; Figure 2 (Hopper) A=12 B=22")
	return res
}

// Table1Schedule actually simulates the Section 3 example under the
// given strategy with the paper's exact durations and returns the two
// jobs' completion times. Exported for the motivation example binary.
func Table1Schedule(strategy string) (jobA, jobB float64) {
	eng := simulator.New(1)
	ms := cluster.NewMachines(7, 1)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())

	mk := func(id cluster.JobID, n int) *cluster.Job {
		ph := &cluster.Phase{MeanTaskDuration: 10, Tasks: make([]*cluster.Task, n)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &cluster.Task{}
		}
		return cluster.NewJob(id, "", 0, []*cluster.Phase{ph})
	}
	A := mk(1, 4)
	B := mk(2, 5)

	// Table 1: every copy runs 10s except two straggling originals —
	// A4 (30s) and B4 (20s).
	exec.DurationOverride = func(t *cluster.Task, spec bool) float64 {
		if t.Job.ID == 1 && t.Index == 3 && !spec {
			return 30
		}
		if t.Job.ID == 2 && t.Index == 3 && !spec {
			return 20
		}
		return 10
	}

	cfg := scheduler.Config{
		CheckInterval: 0.5,
		Spec: speculation.Config{
			// Detection after 2 time units = 0.2 of the 10s mean.
			DetectDelayFrac: 0.2,
			Epsilon:         1, // the example has no fairness constraint
		},
	}
	var sched Arriver
	switch strategy {
	case "best-effort":
		sched = scheduler.NewSRPT(eng, exec, cfg)
	case "budgeted":
		cfg.SpecBudget = 3
		sched = scheduler.NewBudgeted(eng, exec, cfg)
	case "hopper":
		// beta such that V_A = 2/beta*4 = 5 slots, as in Figure 2.
		cfg.Spec.BetaPrior = 1.6
		sched = scheduler.NewHopper(eng, exec, cfg)
	default:
		panic("unknown strategy " + strategy)
	}
	eng.Post(0, func() { sched.Arrive(A) })
	eng.Post(0, func() { sched.Arrive(B) })
	eng.Run()
	return A.CompletionTime(), B.CompletionTime()
}
