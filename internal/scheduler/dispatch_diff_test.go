// Differential test for the scheduler hot-path overhaul: the optimized
// incremental dispatch (dense job-index layout, cached priorities,
// ring-deque wants, cached fresh-demand and at-cap counters, speculation
// answered from the victim index) must produce placement sequences
// byte-identical to the frozen pre-overhaul implementation in
// reference_test.go, which asks the speculation scans — same machines,
// same start times, same speculative choices, same kill outcomes, and
// therefore the same RNG consumption. See DESIGN.md section 6 for the
// identity contract.
package scheduler_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/experiments"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/workload"
)

// runPlacementLog replays a trace under one engine and serializes every
// scheduling decision the run made: each copy's machine, kind, locality,
// start, and fate, plus task and job completion times. Two runs that
// consume randomness differently, break ties differently, or reorder any
// queue produce different logs.
func runPlacementLog(t *testing.T, mk func(*simulator.Engine, *cluster.Executor) scheduler.Engine,
	spec experiments.ClusterSpec, jobs []*cluster.Job, seed int64) string {
	t.Helper()
	eng := simulator.New(seed)
	ms := cluster.NewMachines(spec.Machines, spec.SlotsPerMachine)
	exec := cluster.NewExecutor(eng, ms, spec.Exec)
	sched := mk(eng, exec)
	for _, j := range jobs {
		j := j
		eng.Post(j.Arrival, func() { sched.Arrive(j) })
	}
	eng.Run()
	if got := len(sched.Completed()); got != len(jobs) {
		t.Fatalf("%s finished %d of %d jobs", sched.Name(), got, len(jobs))
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "copies=%d spec=%d killed=%d local=%d slotsec=%.9g\n",
		exec.CopiesStarted, exec.SpeculativeCopies, exec.CopiesKilled, exec.LocalCopies, exec.SlotSecondsUsed)
	for _, j := range jobs {
		fmt.Fprintf(&sb, "job %d done=%.9g start=%.9g\n", j.ID, j.DoneAt, j.StartAt)
		for _, p := range j.Phases {
			for _, task := range p.Tasks {
				fmt.Fprintf(&sb, " t%d.%d done=%.9g:", p.Index, task.Index, task.DoneAt)
				for _, c := range task.Copies {
					fmt.Fprintf(&sb, " [m%d s%v l%v %.9g+%.9g k%v w%v]",
						c.Machine, c.Speculative, task.LocalOn(c.Machine), float64(c.Start), float64(c.Duration), c.Killed, c.Won)
				}
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}

// diffScenario is one randomized workload regime the engines are compared
// under.
type diffScenario struct {
	name string
	prof workload.Profile
	util float64
	jobs int
	spec experiments.ClusterSpec
	cfg  scheduler.Config
}

func diffScenarios() []diffScenario {
	em := cluster.DefaultExecModel()
	mid := experiments.ClusterSpec{Machines: 120, SlotsPerMachine: 4, Exec: em}
	return []diffScenario{
		{
			// Sustained overload: every dispatch pass hits the budget
			// bound and the reservation (anticipation) arithmetic.
			name: "saturation",
			prof: workload.Facebook(), util: 1.05, jobs: 160,
			spec: mid,
			cfg:  scheduler.Config{CheckInterval: 0.5},
		},
		{
			// Interactive tasks with an aggressive scan interval and a
			// copy cap of 3: maximal pressure on the wants queue (races
			// between policy flags, completions, and the front-requeue
			// retry path).
			name: "spec-races",
			prof: workload.Sparkify(workload.Facebook()), util: 0.8, jobs: 140,
			spec: mid,
			cfg: scheduler.Config{CheckInterval: 0.05,
				Spec: speculation.Config{MaxCopies: 3}},
		},
		{
			// One input replica per task and a window of half the active
			// jobs: the promotion swaps inside the dispatch pass run
			// constantly, several per pass, so a locality cursor that
			// skips a job it never asked diverges. A 15 % window serves
			// too few jobs per pass to show it.
			name: "locality-window",
			prof: workload.Sparkify(workload.Bing()), util: 0.75, jobs: 140,
			spec: mid,
			cfg:  scheduler.Config{CheckInterval: 0.1, LocalityK: 50},
		},
	}
}

// engineMakers returns the three centralized engines, parameterized by
// reference mode.
func engineMakers(cfg scheduler.Config, reference bool) map[string]func(*simulator.Engine, *cluster.Executor) scheduler.Engine {
	budCfg := cfg
	budCfg.SpecBudget = 24
	makers := map[string]func(*simulator.Engine, *cluster.Executor) scheduler.Engine{
		"hopper": func(e *simulator.Engine, x *cluster.Executor) scheduler.Engine {
			return scheduler.NewHopper(e, x, cfg)
		},
		"srpt": func(e *simulator.Engine, x *cluster.Executor) scheduler.Engine {
			return scheduler.NewSRPT(e, x, cfg)
		},
		"budgeted": func(e *simulator.Engine, x *cluster.Executor) scheduler.Engine {
			return scheduler.NewBudgeted(e, x, budCfg)
		},
	}
	if reference {
		for name, mk := range makers {
			makers[name] = scheduler.ReferenceOf(mk)
		}
	}
	return makers
}

func TestDispatchMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine replay matrix; skipped with -short")
	}
	for _, sc := range diffScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []int64{11, 4242} {
				tr := experiments.GenTrace(sc.prof, sc.jobs, sc.util, sc.spec, seed)
				opt := engineMakers(sc.cfg, false)
				ref := engineMakers(sc.cfg, true)
				for name := range opt {
					got := runPlacementLog(t, opt[name], sc.spec, experiments.CloneJobs(tr.Jobs), seed+1)
					want := runPlacementLog(t, ref[name], sc.spec, experiments.CloneJobs(tr.Jobs), seed+1)
					if got != want {
						t.Errorf("%s seed %d: optimized dispatch diverged from reference\n%s",
							name, seed, firstLogDiff(want, got))
					}
				}
			}
		})
	}
}

func firstLogDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  opt: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length mismatch: ref %d lines, opt %d lines", len(wl), len(gl))
}
