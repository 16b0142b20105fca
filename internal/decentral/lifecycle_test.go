package decentral

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// Decentralized half of the phase-lifecycle property suite: on random
// DAG workloads with gated joins, every phase wakeup reaches the owning
// scheduler core exactly once, the cores observe zero duplicate
// deliveries (Stats.DoubleWakeups), and every job completes. Before the
// exactly-once lifecycle, the double-fired wakeups double-enqueued whole
// phases into pendingFresh and re-probed them, inflating demand and
// probe traffic.
//
// The same runs carry the no-silent-demand property: a scheduler never
// hands out a task for a job it last answered NoDemand without having
// sent probes for that job in between (Stats.SilentDemand) — workers
// drop their reservation on that answer, so demand that appears without
// probes has nobody left to ask for it.

// lifecycleDAGJobs builds a mixed-shape DAG workload (chain, fan-out,
// fan-in, diamond rotation) with transfer-gated joins.
func lifecycleDAGJobs(seed int64, n int) []*cluster.Job {
	rng := rand.New(rand.NewSource(seed))
	mk := func(tasks int, mean, transfer float64, deps ...int) *cluster.Phase {
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
		mean := 0.4 + rng.Float64()
		nt := func() int { return 1 + rng.Intn(4) }
		tw := func(tasks int) float64 { return rng.Float64() * 8 * float64(tasks) * mean }
		var phases []*cluster.Phase
		switch id % 4 {
		case 0:
			phases = append(phases, mk(nt(), mean, 0))
			k := nt()
			phases = append(phases, mk(k, mean, tw(k), 0))
		case 1:
			phases = append(phases, mk(nt(), mean, 0))
			for i := 0; i < 2; i++ {
				k := nt()
				phases = append(phases, mk(k, mean, tw(k), 0))
			}
		case 2:
			phases = append(phases, mk(nt(), mean, 0), mk(nt(), mean, 0))
			k := nt()
			phases = append(phases, mk(k, mean, tw(k), 0, 1))
		case 3:
			phases = append(phases, mk(nt(), mean, 0))
			k1, k2, jn := nt(), nt(), nt()
			phases = append(phases,
				mk(k1, mean, tw(k1), 0),
				mk(k2, mean, tw(k2), 0))
			phases = append(phases, mk(jn, mean, tw(jn), 1, 2))
		}
		jobs = append(jobs, cluster.NewJob(cluster.JobID(id), "", arrival, phases))
		arrival += rng.Float64()
	}
	return jobs
}

// TestDecentralExactlyOnceWakeups runs the lifecycle property under all
// decentralized modes across seeds.
func TestDecentralExactlyOnceWakeups(t *testing.T) {
	modes := []Mode{ModeHopper, ModeSparrow, ModeSparrowSRPT, ModeLoadCache}
	for _, seed := range []int64{9, 404, 7777} {
		for _, mode := range modes {
			seed, mode := seed, mode
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				jobs := lifecycleDAGJobs(seed, 24)
				eng := simulator.New(seed + 1)
				ms := cluster.NewMachines(10, 2)
				exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
				sys := New(eng, exec, Config{Mode: mode, NumSchedulers: 3, CheckInterval: 0.1})

				fired := make(map[*cluster.Phase]int)
				prev := exec.OnPhaseRunnable
				exec.OnPhaseRunnable = func(p *cluster.Phase) {
					fired[p]++
					prev(p)
				}
				for _, j := range jobs {
					j := j
					eng.At(j.Arrival, func() { sys.Arrive(j) })
				}
				eng.Run()

				if got := len(sys.Completed()); got != len(jobs) {
					t.Fatalf("completed %d of %d jobs", got, len(jobs))
				}
				for _, j := range jobs {
					for _, p := range j.Phases {
						if fired[p] != 1 {
							t.Errorf("job %d phase %d: %d wakeups, want exactly 1", j.ID, p.Index, fired[p])
						}
					}
				}
				if sys.DoubleWakeups != 0 || sys.DoubleWakeupTasks != 0 {
					t.Fatalf("cores observed %d duplicate wakeups (%d phantom tasks); unlock lifecycle violated",
						sys.DoubleWakeups, sys.DoubleWakeupTasks)
				}
				if sys.OccupancyLeaks != 0 {
					t.Fatalf("%d occupancy leaks", sys.OccupancyLeaks)
				}
				if sys.SilentDemand != 0 {
					t.Fatalf("%d tasks handed out for a job that had said NoDemand and not probed since", sys.SilentDemand)
				}
			})
		}
	}
}

// TestLoadCacheLifecycleHetero runs the exactly-once lifecycle property
// for the load-cached mode on a heterogeneous cluster with per-task
// demand: the DAG jobs get the hetero demand split (a third zero, a
// third small, a third big-class-only), so the run exercises the
// demand-aware hand-out, the capacity-filtered probe aiming, and the
// reprobe refresh together. Across seeds the cores must observe zero
// duplicate wakeups and every job must complete — a stranded big-demand
// task or a double-enqueued phase both fail here.
func TestLoadCacheLifecycleHetero(t *testing.T) {
	classes := []cluster.MachineClass{
		{Name: "small", Count: 6, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
		{Name: "standard", Count: 4, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: 3, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}
	for _, seed := range []int64{11, 303, 6161, 9999} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			jobs := lifecycleDAGJobs(seed, 24)
			stampDemands(jobs, heteroDemands)
			eng := simulator.New(seed + 1)
			ms := cluster.NewMachinesClassed(classes)
			exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
			sys := New(eng, exec, Config{
				Mode: ModeLoadCache, NumSchedulers: 3,
				CheckInterval: 0.1, ReprobeInterval: 1,
			})
			for _, j := range jobs {
				j := j
				eng.At(j.Arrival, func() { sys.Arrive(j) })
			}
			eng.Run()

			if got := len(sys.Completed()); got != len(jobs) {
				t.Fatalf("completed %d of %d jobs", got, len(jobs))
			}
			if sys.DoubleWakeups != 0 || sys.DoubleWakeupTasks != 0 {
				t.Fatalf("cores observed %d duplicate wakeups (%d phantom tasks)",
					sys.DoubleWakeups, sys.DoubleWakeupTasks)
			}
			if sys.OccupancyLeaks != 0 {
				t.Fatalf("%d occupancy leaks", sys.OccupancyLeaks)
			}
			if sys.SilentDemand != 0 {
				t.Fatalf("%d tasks handed out for a job that had said NoDemand and not probed since", sys.SilentDemand)
			}
		})
	}
}
