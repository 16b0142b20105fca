package decentral

import (
	"reflect"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// mkJob builds a single-phase job.
func mkJob(id cluster.JobID, n int, mean, arrival float64) *cluster.Job {
	ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	return cluster.NewJob(id, "", arrival, []*cluster.Phase{ph})
}

// heteroDemands is the demand split of the heterogeneous suites: a third
// of the jobs declare none, a third fit every class, a third only the
// big one.
var heteroDemands = []cluster.Resources{{}, {CPU: 2, Mem: 4}, {CPU: 8, Mem: 16}}

// stampDemands gives job i the demand demands[i mod len], on its phases
// and their tasks alike (the generator has already expanded both).
func stampDemands(jobs []*cluster.Job, demands []cluster.Resources) {
	for i, j := range jobs {
		d := demands[i%len(demands)]
		for _, p := range j.Phases {
			p.Demand = d
			for _, t := range p.Tasks {
				t.Demand = d
			}
		}
	}
}

func mkSystem(mode Mode, machines, slots int, seed int64) (*simulator.Engine, *cluster.Executor, *System) {
	eng := simulator.New(seed)
	ms := cluster.NewMachines(machines, slots)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	sys := New(eng, exec, Config{Mode: mode, NumSchedulers: 3, CheckInterval: 0.1})
	return eng, exec, sys
}

func runAll(t *testing.T, eng *simulator.Engine, sys *System, jobs []*cluster.Job) {
	t.Helper()
	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() { sys.Arrive(j) })
	}
	eng.Run()
	if got := len(sys.Completed()); got != len(jobs) {
		t.Fatalf("%s completed %d of %d jobs", sys.Name(), got, len(jobs))
	}
}

func TestAllModesCompleteJobs(t *testing.T) {
	for _, mode := range []Mode{ModeHopper, ModeSparrow, ModeSparrowSRPT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			eng, exec, sys := mkSystem(mode, 12, 2, 3)
			var jobs []*cluster.Job
			for i := 0; i < 15; i++ {
				jobs = append(jobs, mkJob(cluster.JobID(i), 4+i*2, 1.0, float64(i)*0.5))
			}
			runAll(t, eng, sys, jobs)
			if exec.Machines.FreeSlots() != exec.Machines.TotalSlots() {
				t.Fatal("slots leaked")
			}
			if sys.Messages == 0 || sys.Probes == 0 {
				t.Fatal("no protocol traffic recorded")
			}
			if sys.OccupancyLeaks != 0 {
				t.Fatalf("%d occupancy leaks", sys.OccupancyLeaks)
			}
		})
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	eng, _, sys := mkSystem(ModeHopper, 8, 2, 5)
	var jobs []*cluster.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(cluster.JobID(i), 2, 0.5, float64(i)*0.1))
	}
	counts := map[int]int{}
	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() {
			sys.Arrive(j)
			counts[sys.byJob[j.ID].id]++
		})
	}
	eng.Run()
	for sid, c := range counts {
		if c != 2 {
			t.Fatalf("scheduler %d got %d jobs, want 2 (round robin)", sid, c)
		}
	}
}

func TestHopperUsesMoreProbesThanSparrow(t *testing.T) {
	mk := func(mode Mode) int64 {
		eng, _, sys := mkSystem(mode, 12, 2, 7)
		var jobs []*cluster.Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, mkJob(cluster.JobID(i), 10, 1.0, float64(i)*0.3))
		}
		runAll(t, eng, sys, jobs)
		return sys.Probes
	}
	hp, sp := mk(ModeHopper), mk(ModeSparrow)
	// Hopper defaults to probe ratio 4, Sparrow to 2.
	if hp < sp*3/2 {
		t.Fatalf("Hopper probes %d not ~2x Sparrow's %d", hp, sp)
	}
}

func TestDecentralizedSpeculationHappens(t *testing.T) {
	eng, exec, sys := mkSystem(ModeHopper, 12, 2, 9)
	// Straggle the first task of every job badly.
	exec.DurationOverride = func(task *cluster.Task, spec bool) float64 {
		if task.Index == 0 && !spec {
			return 30
		}
		return 1
	}
	jobs := []*cluster.Job{mkJob(1, 8, 1.0, 0)}
	runAll(t, eng, sys, jobs)
	if exec.SpeculativeCopies == 0 {
		t.Fatal("no speculative copies under decentralized Hopper")
	}
	if jobs[0].CompletionTime() > 15 {
		t.Fatalf("completion %.1f — straggler not clipped", jobs[0].CompletionTime())
	}
}

func TestRefusableProtocolConverges(t *testing.T) {
	// Many small jobs at once: workers must settle through refusals and
	// the system must neither livelock nor leave occupancy behind.
	eng, _, sys := mkSystem(ModeHopper, 6, 1, 11)
	var jobs []*cluster.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, mkJob(cluster.JobID(i), 3, 0.5, 0))
	}
	runAll(t, eng, sys, jobs)
	if sys.OccupancyLeaks != 0 {
		t.Fatalf("occupancy leaks: %d", sys.OccupancyLeaks)
	}
}

func TestSparrowSRPTBeatsSparrowUnderLoad(t *testing.T) {
	// FIFO head-of-line blocking: one giant job then many small ones.
	run := func(mode Mode) float64 {
		eng, _, sys := mkSystem(mode, 8, 2, 13)
		jobs := []*cluster.Job{mkJob(1, 64, 1.0, 0)}
		for i := 2; i <= 21; i++ {
			jobs = append(jobs, mkJob(cluster.JobID(i), 2, 1.0, 0.2))
		}
		runAll(t, eng, sys, jobs)
		var sum float64
		for _, j := range jobs {
			sum += j.CompletionTime()
		}
		return sum / float64(len(jobs))
	}
	fifo, srpt := run(ModeSparrow), run(ModeSparrowSRPT)
	if srpt >= fifo {
		t.Fatalf("Sparrow-SRPT (%.2f) not better than Sparrow (%.2f) with a head-of-line elephant", srpt, fifo)
	}
}

// TestConfigDefaultsMatchProtocol checks, for every mode, three things
// about the protocol.Config a System hands its cores:
//   - the projection of a defaulted decentral Config equals
//     protocol.Config's own defaults, BetaPrior aside (decentral has no
//     such knob), so the two default tables cannot drift apart;
//   - a default System resolves exactly protocol.Config's defaults,
//     BetaPrior included (1.5);
//   - a System built with every projected field set away from its
//     default carries each setting, so a field protocol() drops shows
//     here rather than in a figure.
func TestConfigDefaultsMatchProtocol(t *testing.T) {
	newSys := func(cfg Config) *System {
		eng := simulator.New(1)
		exec := cluster.NewExecutor(eng, cluster.NewMachines(4, 2), cluster.DefaultExecModel())
		return New(eng, exec, cfg)
	}
	for _, mode := range []Mode{ModeHopper, ModeSparrow, ModeSparrowSRPT, ModeLoadCache} {
		want := protocol.Config{Mode: mode}.WithDefaults()
		projected := want
		projected.BetaPrior = 0
		if got := (Config{Mode: mode}).WithDefaults().protocol(); !reflect.DeepEqual(got, projected) {
			t.Fatalf("%s: decentral defaults project to %+v, protocol defaults are %+v", mode, got, projected)
		}

		got := newSys(Config{Mode: mode}).pcfg
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a default System resolves %+v, protocol defaults are %+v", mode, got, want)
		}
		if got.BetaPrior != 1.5 {
			t.Fatalf("%s: BetaPrior resolves to %v, want 1.5", mode, got.BetaPrior)
		}

		set := Config{
			Mode:             mode,
			NumSchedulers:    3,
			ProbeRatio:       3.5,
			RefusalThreshold: 5,
			Epsilon:          0.3,
			FairnessOff:      true,
			Spec:             speculation.Config{MaxCopies: 3, DetectDelayFrac: 0.5},
		}
		wantSet := protocol.Config{
			Mode:             mode,
			NumSchedulers:    3,
			ProbeRatio:       3.5,
			RefusalThreshold: 5,
			Epsilon:          0.3,
			FairnessOff:      true,
			Spec:             speculation.Config{MaxCopies: 3, DetectDelayFrac: 0.5},
		}.WithDefaults()
		if got := newSys(set).pcfg; !reflect.DeepEqual(got, wantSet) {
			t.Fatalf("%s: a System configured %+v resolves %+v, want %+v", mode, set, got, wantSet)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Mode: ModeHopper}.WithDefaults()
	if c.ProbeRatio != 4 {
		t.Errorf("Hopper probe ratio = %v, want 4", c.ProbeRatio)
	}
	c2 := Config{Mode: ModeSparrow}.WithDefaults()
	if c2.ProbeRatio != 2 {
		t.Errorf("Sparrow probe ratio = %v, want 2", c2.ProbeRatio)
	}
	if c.RefusalThreshold != 2 || c.NumSchedulers != 10 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestModeString(t *testing.T) {
	if ModeHopper.String() != "Hopper-D" || ModeSparrow.String() != "Sparrow" ||
		ModeSparrowSRPT.String() != "Sparrow-SRPT" {
		t.Fatal("mode names wrong")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		eng, _, sys := mkSystem(ModeHopper, 10, 2, 17)
		var jobs []*cluster.Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, mkJob(cluster.JobID(i), 6, 1.0, float64(i)*0.4))
		}
		runAll(t, eng, sys, jobs)
		var sum float64
		for _, j := range jobs {
			sum += j.CompletionTime()
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different outcomes: %v vs %v", a, b)
	}
}
