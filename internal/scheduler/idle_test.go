package scheduler

import (
	"math"
	"slices"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/workload"
)

// This file pins the Hopper engine's idle bookkeeping (DESIGN.md
// section 6): the demand count, the stirred list, each job's asleepUntil
// and the wake, which let a dispatch pass ask only the jobs that could
// take a slot.

// runningSet is the job's running set as the scans take it: its running
// tasks in hand-out order.
func runningSet(s *jobState) []*cluster.Task {
	var out []*cluster.Task
	for _, p := range s.Job.Phases {
		for _, t := range p.Tasks {
			if t.State == cluster.TaskRunning {
				out = append(out, t)
			}
		}
	}
	slices.SortFunc(out, func(a, b *cluster.Task) int { return a.VictimPos - b.VictimPos })
	return out
}

// cannotPlace reports why s could place a copy at now, asked of the
// oracles rather than the counters: a fresh task by phase scan, a live
// want, or a victim by the monitor's scan over the running set. "" means
// it cannot.
func cannotPlace(b *Base, s *jobState) string {
	now := b.Eng.Now()
	switch {
	case freshDemandScan(s) > 0:
		return "a fresh task"
	case b.Book.OldestWant(&s.JobBook) != nil:
		return "a live want"
	case b.Cfg.DisableSpec:
		return ""
	case s.Mon.BestVictim(now, runningSet(s), b.Cfg.Spec.MaxCopies) != nil:
		return "a victim"
	}
	return ""
}

// checkBookkeeping fails unless the chassis' demand count is the sum of
// the jobs' demands and the stirred list holds exactly the listed active
// jobs, each once.
func checkBookkeeping(t *testing.T, b *Base) {
	t.Helper()
	demand, listed := 0, 0
	for _, s := range b.active {
		demand += s.demand()
		if s.listed {
			listed++
		}
	}
	if demand != b.demand {
		t.Fatalf("t=%v: demand count %d, jobs' demands sum to %d", b.Eng.Now(), b.demand, demand)
	}
	onList := 0
	for s := b.stirred; s != nil; s = s.nextStirred {
		if !s.listed || b.byID[s.Job.ID] != s {
			t.Fatalf("t=%v: job %d on the stirred list is unlisted or gone", b.Eng.Now(), s.Job.ID)
		}
		onList++
	}
	if onList != listed {
		t.Fatalf("t=%v: %d jobs on the stirred list, %d listed", b.Eng.Now(), onList, listed)
	}
}

// TestSkippedJobsCannotPlace checks the skip's soundness on every pass,
// against the oracles rather than the counters: each job a pass goes past
// without placeOne — asleep (now < asleepUntil), or any job with quota
// left when the whole pass is idle — must have no fresh task, no live
// want and no victim the monitor's scan finds; and the demand count and
// the stirred list must match what they summarize. Caps 1, 2 and 3, under
// the light load where most passes place nothing, and a cap of 2 on two
// machine classes where a third of the jobs fit only the faster, bigger
// class: there a placeOne can say no while the job still holds fresh
// tasks or wants, which on one class it never does.
func TestSkippedJobsCannotPlace(t *testing.T) {
	prof := workload.Sparkify(workload.Facebook())
	classes := []cluster.MachineClass{
		{Name: "small", Count: 100, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: 20, Speed: 1.5, Slots: 4, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}
	for _, c := range []struct {
		spec   speculation.Config
		hetero bool
	}{{speculation.Config{MaxCopies: 1}, false}, {speculation.Config{}, false}, {speculation.Config{MaxCopies: 3}, false},
		{speculation.Config{}, true}} {
		spec := c.spec
		tr := workload.Generate(workload.Config{Profile: prof, NumJobs: 120, TargetUtilization: 0.45,
			TotalSlots: 480, NumMachines: 120, Seed: 11})
		eng, exec := mkSetup(120, 4, 12)
		if c.hetero {
			exec = cluster.NewExecutor(eng, cluster.NewMachinesClassed(classes), cluster.DefaultExecModel())
			for i, j := range tr.Jobs {
				d := []cluster.Resources{{}, {CPU: 2, Mem: 4}, {CPU: 8, Mem: 16}}[i%3]
				for _, p := range j.Phases {
					p.Demand = d
					for _, task := range p.Tasks {
						task.Demand = d
					}
				}
			}
		}
		h := NewHopper(eng, exec, Config{CheckInterval: 0.05, Spec: spec})
		orig := h.Base.dispatch
		asleep, idleSkips := 0, 0
		h.Base.dispatch = func() {
			checkBookkeeping(t, h.Base)
			now := eng.Now()
			for _, s := range h.active {
				if now < s.asleepUntil {
					asleep++
					if why := cannotPlace(h.Base, s); why != "" {
						t.Fatalf("%+v hetero=%v t=%v: job %d is asleep until %v but has %s", spec, c.hetero, now, s.Job.ID, s.asleepUntil, why)
					}
				}
			}
			passes, empty, copies := h.passes, h.emptyWalks, exec.CopiesStarted
			orig()
			if h.passes == passes || h.emptyWalks != empty || exec.CopiesStarted != copies {
				return // no pass, or a pass that walked order
			}
			idleSkips++
			for _, s := range h.active {
				if s.target > s.Occupied {
					if why := cannotPlace(h.Base, s); why != "" {
						t.Fatalf("%+v hetero=%v t=%v: an idle pass skipped job %d, which has %s", spec, c.hetero, now, s.Job.ID, why)
					}
				}
			}
		}
		runJobs(t, eng, h, tr.Jobs)
		t.Logf("%+v hetero=%v: %d passes, %d idle, %d asleep jobs checked", spec, c.hetero, h.passes, idleSkips, asleep)
		if idleSkips == 0 || asleep == 0 {
			t.Fatalf("%+v hetero=%v: %d idle passes and %d asleep jobs: the skip is unexercised", spec, c.hetero, idleSkips, asleep)
		}
	}
}

// TestHopperPassesAskWhatCanPlace pins how much work a dispatch pass does
// for nothing on a quarter-size sim-central (Facebook jobs at util 0.9,
// 175 jobs on 1000×4 slots, CheckInterval 1): the share of passes that
// walk the service order and place nothing, and placeOne calls per placed
// copy. With the idle check the replay makes 6,340 passes, 131 of them
// (2.1 %) walks for nothing, and 11,137 placeOne calls for 9,579 copies
// (1.16 each). When every pass walked order and asked every job with
// quota left, 5,427 of the 6,340 (85.6 %) placed nothing and there were
// 148,711 calls (15.5 per copy); on the full sim-central shape 8,520 of
// 11,682 (72.9 %) and 21.9 per copy, now 648 (5.5 %) and 1.23. The counts
// are exact at a fixed seed, so the bounds only leave room for a change
// that moves the schedule. The goldens cannot see either number: an
// engine that walks every active job on every pass places the same.
func TestHopperPassesAskWhatCanPlace(t *testing.T) {
	tr := workload.Generate(workload.Config{Profile: workload.Facebook(), NumJobs: 175, TargetUtilization: 0.9,
		TotalSlots: 4000, NumMachines: 1000, Seed: 7001})
	eng, exec := mkSetup(1000, 4, 7002)
	h := NewHopper(eng, exec, Config{CheckInterval: 1})
	runJobs(t, eng, h, tr.Jobs)
	empty := float64(h.emptyWalks) / float64(h.passes)
	perCopy := float64(h.placeOnes) / float64(exec.CopiesStarted)
	t.Logf("%d passes, %d walked order for nothing (%.1f %%); %d placeOne calls for %d copies (%.2f each)",
		h.passes, h.emptyWalks, 100*empty, h.placeOnes, exec.CopiesStarted, perCopy)
	if empty > 0.05 {
		t.Errorf("%.1f %% of passes walked order and placed nothing, want under 5 %%", 100*empty)
	}
	if perCopy > 1.5 {
		t.Errorf("%.2f placeOne calls per placed copy, want under 1.5", perCopy)
	}
}

// TestActiveSetObeysLittlesLaw checks the active set the idle
// bookkeeping reads against Little's law on a replay that starts and ends
// empty: the integral of ActiveJobs() over time equals the sum of the
// jobs' sojourns (DoneAt − Arrival), to a relative 1e-9, under all three
// centralized engines. An active set that keeps a finished job, or admits
// one late, breaks the equality.
func TestActiveSetObeysLittlesLaw(t *testing.T) {
	prof := workload.Sparkify(workload.Facebook())
	mk := map[string]func(*simulator.Engine, *cluster.Executor) *Base{
		"hopper": func(e *simulator.Engine, x *cluster.Executor) *Base {
			return NewHopper(e, x, Config{CheckInterval: 0.2}).Base
		},
		"srpt": func(e *simulator.Engine, x *cluster.Executor) *Base {
			return NewSRPT(e, x, Config{CheckInterval: 0.2}).Base
		},
		"budgeted": func(e *simulator.Engine, x *cluster.Executor) *Base {
			return NewBudgeted(e, x, Config{CheckInterval: 0.2, SpecBudget: 24}).Base
		},
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			tr := workload.Generate(workload.Config{Profile: prof, NumJobs: 150, TargetUtilization: 0.8,
				TotalSlots: 480, NumMachines: 120, Seed: 21})
			eng, exec := mkSetup(120, 4, 22)
			b := f(eng, exec)
			var area, last float64
			n := 0
			advance := func() { // integrate ActiveJobs() up to now
				area += float64(n) * (eng.Now() - last)
				last = eng.Now()
			}
			jobDone := exec.OnJobDone
			exec.OnJobDone = func(j *cluster.Job) {
				advance()
				jobDone(j)
				n = b.ActiveJobs()
			}
			for _, j := range tr.Jobs {
				eng.At(j.Arrival, func() {
					advance()
					b.Arrive(j)
					n = b.ActiveJobs()
				})
			}
			eng.Run()
			if n != 0 || len(b.Completed()) != len(tr.Jobs) {
				t.Fatalf("%d of %d jobs finished, %d still active", len(b.Completed()), len(tr.Jobs), n)
			}
			var sojourns float64
			for _, j := range tr.Jobs {
				sojourns += j.DoneAt - j.Arrival
			}
			if rel := math.Abs(area-sojourns) / sojourns; rel > 1e-9 {
				t.Fatalf("∫ActiveJobs dt = %v, Σ sojourns = %v: relative gap %.3g", area, sojourns, rel)
			}
		})
	}
}
