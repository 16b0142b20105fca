package scheduler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// This file is the engine half of the phase-lifecycle property suite
// (DESIGN.md section 6), over random DAG traces spanning chains,
// fan-outs, fan-ins, and diamonds:
//
//   - every phase's wakeup reaches the chassis exactly once (the
//     chassis panics on a duplicate phase credit, so merely
//     running to completion rejects double-fire);
//   - the event-driven fresh-demand counter equals the phase-scan
//     oracle on every dispatch pass;
//   - the optimized dispatch and the frozen reference implementation
//     (reference_test.go) still produce byte-identical placement
//     logs, proving the lifecycle change left centralized scheduling
//     untouched.

// lifecycleJobs generates a random mixed-shape DAG workload. Transfer
// work is cranked high enough that join unlocks are gated for several
// task lifetimes — the window in which sibling completions used to
// re-plan them.
func lifecycleJobs(seed int64, n int) []*cluster.Job {
	rng := rand.New(rand.NewSource(seed))
	mk := func(tasks int, mean float64, transfer float64, deps ...int) *cluster.Phase {
		p := &cluster.Phase{
			MeanTaskDuration: mean,
			TransferWork:     transfer,
			Tasks:            make([]*cluster.Task, tasks),
			Deps:             deps,
		}
		for i := range p.Tasks {
			p.Tasks[i] = &cluster.Task{}
		}
		return p
	}
	var jobs []*cluster.Job
	arrival := 0.0
	for id := 0; id < n; id++ {
		mean := 0.5 + rng.Float64()*1.5
		nt := func() int { return 1 + rng.Intn(6) }
		tw := func(tasks int) float64 { return rng.Float64() * 10 * float64(tasks) * mean }
		var phases []*cluster.Phase
		switch id % 4 {
		case 0: // chain
			phases = append(phases, mk(nt(), mean, 0))
			for len(phases) < 2+rng.Intn(3) {
				k := nt()
				phases = append(phases, mk(k, mean, tw(k), len(phases)-1))
			}
		case 1: // fan-out
			phases = append(phases, mk(nt(), mean, 0))
			for i := 0; i < 2+rng.Intn(2); i++ {
				k := nt()
				phases = append(phases, mk(k, mean, tw(k), 0))
			}
		case 2: // fan-in
			k := 2 + rng.Intn(2)
			deps := make([]int, k)
			for i := 0; i < k; i++ {
				phases = append(phases, mk(nt(), mean, 0))
				deps[i] = i
			}
			jn := nt()
			phases = append(phases, mk(jn, mean, tw(jn), deps...))
		case 3: // diamond
			phases = append(phases, mk(nt(), mean, 0))
			k := 2 + rng.Intn(2)
			deps := make([]int, k)
			for i := 0; i < k; i++ {
				m := nt()
				phases = append(phases, mk(m, mean, tw(m), 0))
				deps[i] = i + 1
			}
			jn := nt()
			phases = append(phases, mk(jn, mean, tw(jn), deps...))
		}
		jobs = append(jobs, cluster.NewJob(cluster.JobID(id), "", arrival, phases))
		arrival += rng.Float64() * 1.5
	}
	return jobs
}

// lifecycleEngines builds the three centralized engines with speculation
// pressure on (copy races interleave with unlocks).
func lifecycleEngines(reference bool) map[string]func(*simulator.Engine, *cluster.Executor) Engine {
	cfg := Config{CheckInterval: 0.1, Spec: speculation.Config{MaxCopies: 2}}
	budCfg := cfg
	budCfg.SpecBudget = 4
	makers := map[string]func(*simulator.Engine, *cluster.Executor) Engine{
		"hopper":   func(e *simulator.Engine, x *cluster.Executor) Engine { return NewHopper(e, x, cfg) },
		"srpt":     func(e *simulator.Engine, x *cluster.Executor) Engine { return NewSRPT(e, x, cfg) },
		"budgeted": func(e *simulator.Engine, x *cluster.Executor) Engine { return NewBudgeted(e, x, budCfg) },
	}
	if reference {
		for name, mk := range makers {
			makers[name] = referenceOf(mk)
		}
	}
	return makers
}

// lifecycleLog serializes every placement decision of one run — the same
// quantities dispatch_diff_test compares.
func lifecycleLog(jobs []*cluster.Job, exec *cluster.Executor) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "copies=%d spec=%d killed=%d local=%d slotsec=%.9g\n",
		exec.CopiesStarted, exec.SpeculativeCopies, exec.CopiesKilled, exec.LocalCopies, exec.SlotSecondsUsed)
	for _, j := range jobs {
		fmt.Fprintf(&sb, "job %d done=%.9g\n", j.ID, j.DoneAt)
		for _, p := range j.Phases {
			for _, task := range p.Tasks {
				fmt.Fprintf(&sb, " t%d.%d done=%.9g:", p.Index, task.Index, task.DoneAt)
				for _, c := range task.Copies {
					fmt.Fprintf(&sb, " [m%d s%v %.9g+%.9g k%v w%v]",
						c.Machine, c.Speculative, c.Start, c.Duration, c.Killed, c.Won)
				}
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}

// cloneLifecycleJobs deep-copies the generated jobs (runs mutate them).
func cloneLifecycleJobs(jobs []*cluster.Job) []*cluster.Job {
	out := make([]*cluster.Job, len(jobs))
	for i, j := range jobs {
		phases := make([]*cluster.Phase, len(j.Phases))
		for pi, p := range j.Phases {
			np := &cluster.Phase{
				Deps:             append([]int(nil), p.Deps...),
				MeanTaskDuration: p.MeanTaskDuration,
				TransferWork:     p.TransferWork,
				Tasks:            make([]*cluster.Task, len(p.Tasks)),
			}
			for ti := range p.Tasks {
				np.Tasks[ti] = &cluster.Task{}
			}
			phases[pi] = np
		}
		out[i] = cluster.NewJob(j.ID, j.Name, j.Arrival, phases)
	}
	return out
}

// runLifecycle replays jobs under one engine, asserting the fresh-demand
// oracle on every dispatch pass and exactly-once wakeup delivery per
// phase, and returns the placement log.
func runLifecycle(t *testing.T, mk func(*simulator.Engine, *cluster.Executor) Engine,
	jobs []*cluster.Job, seed int64, checkOracle bool) string {
	t.Helper()
	eng := simulator.New(seed)
	ms := cluster.NewMachines(12, 2)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	sched := mk(eng, exec)

	fired := make(map[*cluster.Phase]int)
	prevPhase := exec.OnPhaseRunnable
	exec.OnPhaseRunnable = func(p *cluster.Phase) {
		fired[p]++
		prevPhase(p)
	}
	if bb := baseOf(sched); bb != nil && checkOracle {
		orig := bb.dispatch
		bb.dispatch = func() {
			for _, s := range bb.active {
				if got, want := s.fresh, freshDemandScan(s); got != want {
					t.Fatalf("%s: cached fresh=%d, scan=%d at t=%v", sched.Name(), got, want, eng.Now())
				}
			}
			orig()
		}
	}

	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() { sched.Arrive(j) })
	}
	eng.Run()
	if got := len(sched.Completed()); got != len(jobs) {
		t.Fatalf("%s finished %d of %d jobs", sched.Name(), got, len(jobs))
	}
	for _, j := range jobs {
		for _, p := range j.Phases {
			if fired[p] != 1 {
				t.Fatalf("%s: job %d phase %d got %d wakeups, want exactly 1",
					sched.Name(), j.ID, p.Index, fired[p])
			}
		}
	}
	return lifecycleLog(jobs, exec)
}

// baseOf unwraps an engine's shared chassis.
func baseOf(e Engine) *Base {
	switch v := e.(type) {
	case *HopperEngine:
		return v.Base
	case *SRPTEngine:
		return v.Base
	case *BudgetedEngine:
		return v.Base
	}
	return nil
}

// TestLifecycleRandomDAGs runs the property triplet for every engine
// across seeds: exactly-once wakeups, fresh == scan oracle, and
// reference-dispatch log identity.
func TestLifecycleRandomDAGs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine random-DAG matrix; skipped with -short")
	}
	for _, seed := range []int64{5, 71, 3301} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			jobs := lifecycleJobs(seed, 36)
			opt := lifecycleEngines(false)
			ref := lifecycleEngines(true)
			for name := range opt {
				got := runLifecycle(t, opt[name], cloneLifecycleJobs(jobs), seed+1, true)
				want := runLifecycle(t, ref[name], cloneLifecycleJobs(jobs), seed+1, false)
				if got != want {
					t.Errorf("%s seed %d: optimized dispatch diverged from reference on DAG workload\n%s",
						name, seed, firstLifecycleDiff(want, got))
				}
			}
		})
	}
}

func firstLifecycleDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  opt: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length mismatch: ref %d lines, opt %d lines", len(wl), len(gl))
}
