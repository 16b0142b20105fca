package speculation

import (
	"math/rand"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// mkRunning builds a task with one live copy of the given start/duration.
func mkRunning(phaseMean float64, start, dur float64) *cluster.Task {
	ph := &cluster.Phase{MeanTaskDuration: phaseMean, Tasks: make([]*cluster.Task, 4)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	j := cluster.NewJob(1, "", 0, []*cluster.Phase{ph})
	t := j.Phases[0].Tasks[0]
	t.State = cluster.TaskRunning
	t.Copies = append(t.Copies, &cluster.Copy{Task: t, Start: start, Duration: dur})
	return t
}

func newMon(pol Policy) *Monitor {
	return NewMonitor(Config{Policy: pol}, rand.New(rand.NewSource(1)))
}

// feed registers n completed copies of the given duration so estNew and
// the slow threshold have history.
func feed(m *Monitor, t *cluster.Task, dur float64, n int) {
	for i := 0; i < n; i++ {
		m.TaskCompleted(t, &cluster.Copy{Task: t, Duration: dur})
	}
}

func TestPolicies(t *testing.T) {
	e := Estimates{Remaining: 25, New: 10, ProjectedTotal: 30, SlowThreshold: 20, PhaseFractionDone: 0.5}
	if !(LATE{}).Wants(e) {
		t.Error("LATE should speculate: rem 25 > new 10 and projected 30 >= threshold 20")
	}
	if (LATE{}).Wants(Estimates{Remaining: 5, New: 10, ProjectedTotal: 30, SlowThreshold: 20}) {
		t.Error("LATE must not speculate when a new copy cannot beat the old")
	}
	if !(Mantri{}).Wants(Estimates{Remaining: 25, New: 10}) {
		t.Error("Mantri should speculate at rem > 2*new")
	}
	if (Mantri{}).Wants(Estimates{Remaining: 15, New: 10}) {
		t.Error("Mantri must not speculate at rem < 2*new")
	}
	g := GRASS{}
	early := Estimates{Remaining: 15, New: 10, PhaseFractionDone: 0.2}
	late := Estimates{Remaining: 15, New: 10, PhaseFractionDone: 0.9}
	if g.Wants(early) {
		t.Error("GRASS early phase should be resource-aware (needs 2x)")
	}
	if !g.Wants(late) {
		t.Error("GRASS near completion should be greedy (1x)")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"LATE", "Mantri", "GRASS"} {
		if got := ByName(n).Name(); got != n {
			t.Errorf("ByName(%q).Name() = %q", n, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown name should panic")
		}
	}()
	ByName("bogus")
}

func TestMonitorDetectionDelay(t *testing.T) {
	m := newMon(LATE{})
	task := mkRunning(1.0, 0, 50)
	feed(m, task, 1.0, 10)
	// Before the detection delay (0.25 * mean = 0.25s) nothing is visible.
	if m.Wants(0.1, task) {
		t.Error("speculation before the detection delay")
	}
	if !m.Wants(1.0, task) {
		t.Error("an observable 50x straggler must be flagged")
	}
}

func TestMonitorRespectsCopyCap(t *testing.T) {
	m := newMon(LATE{})
	task := mkRunning(1.0, 0, 50)
	feed(m, task, 1.0, 10)
	task.Copies = append(task.Copies, &cluster.Copy{Task: task, Start: 0.5, Duration: 50})
	if m.Wants(2.0, task) {
		t.Error("speculation beyond MaxCopies=2")
	}
}

func TestMonitorIgnoresDoneTasks(t *testing.T) {
	m := newMon(LATE{})
	task := mkRunning(1.0, 0, 50)
	task.State = cluster.TaskDone
	if m.Wants(1.0, task) {
		t.Error("done task flagged")
	}
}

func TestCandidatesBudget(t *testing.T) {
	m := newMon(Mantri{})
	var running []*cluster.Task
	for i := 0; i < 5; i++ {
		task := mkRunning(1.0, 0, 40)
		feed(m, task, 1.0, 10)
		running = append(running, task)
	}
	if got := len(m.Candidates(2.0, running, 3)); got != 3 {
		t.Fatalf("budget ignored: %d candidates", got)
	}
	if got := len(m.Candidates(2.0, running, -1)); got != 5 {
		t.Fatalf("unbounded candidates = %d, want 5", got)
	}
}

func TestBestVictimPrefersWorstObservable(t *testing.T) {
	m := newMon(LATE{})
	slow := mkRunning(1.0, 0, 40)
	slower := mkRunning(1.0, 0, 90)
	feed(m, slow, 1.0, 10)
	v := m.BestVictim(2.0, []*cluster.Task{slow, slower}, 2)
	if v != slower {
		t.Fatal("BestVictim did not pick the worst straggler")
	}
}

func TestBestVictimNeverRacesYoungTasks(t *testing.T) {
	// Tasks below the observation delay must not be raced: a fresh draw
	// would not beat them in expectation, and the slot is worth holding
	// for a ripe straggler (the anticipation of Figure 2).
	m := newMon(LATE{})
	young := mkRunning(1.0, 0, 10)
	if m.BestVictim(0.1, []*cluster.Task{young}, 2) != nil {
		t.Fatal("raced a task below the observation delay")
	}
	if m.BestVictim(1.0, []*cluster.Task{young}, 2) != young {
		t.Fatal("observable straggler not raced")
	}
}

func TestBestVictimSkipsUnprofitable(t *testing.T) {
	m := newMon(LATE{})
	task := mkRunning(1.0, 0, 1.0) // finishes in 1s, same as a new copy
	feed(m, task, 1.0, 10)
	// At t=0.9 remaining is 0.1 < estNew 1.0: racing is pointless.
	if m.BestVictim(0.9, []*cluster.Task{task}, 2) != nil {
		t.Fatal("raced a copy that a new one cannot beat")
	}
}

// TestVictimsIntoListsWhatBestVictimChoosesFrom: the enumeration applies
// BestVictim's rule to every task — same exclusions (tombstones, young
// copies, unprofitable races, the copy cap), running-set order, and
// BestVictim's pick among them.
func TestVictimsIntoListsWhatBestVictimChoosesFrom(t *testing.T) {
	m := newMon(LATE{})
	slow := mkRunning(1.0, 0, 40)
	young := mkRunning(1.0, 1.9, 40)     // 0.1s old at t=2: not observable
	nearlyDone := mkRunning(1.0, 0, 2.5) // 0.5s left against a 1s fresh copy
	slower := mkRunning(1.0, 0, 90)
	capped := mkRunning(1.0, 0, 90)
	capped.Copies = append(capped.Copies, &cluster.Copy{Task: capped, Start: 1, Duration: 50, Speculative: true})
	running := []*cluster.Task{slow, nil, young, nearlyDone, slower, capped}

	scratch := make([]*cluster.Task, 0, 8)
	got := m.VictimsInto(2.0, running, 2, scratch)
	if len(got) != 2 || got[0] != slow || got[1] != slower {
		t.Fatalf("victims = %v, want [slow slower]", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("result does not reuse the caller's buffer")
	}
	if v := m.BestVictim(2.0, running, 2); v != slower {
		t.Fatalf("BestVictim = %v, want the worst of the listed victims", v)
	}
	if got := m.VictimsInto(2.0, running, 3, got); len(got) != 3 || got[2] != capped {
		t.Fatalf("with a copy cap of 3 the capped task is a victim again: %v", got)
	}
}

func TestEndToEndPolicyComparison(t *testing.T) {
	// GRASS and Mantri should speculate less than LATE on the same
	// workload (stricter rules), and all must finish the job.
	counts := map[string]int{}
	for _, name := range []string{"LATE", "Mantri", "GRASS"} {
		eng := simulator.New(5)
		ms := cluster.NewMachines(8, 2)
		em := cluster.ExecModel{Beta: 1.2, RemotePenalty: 1}
		x := cluster.NewExecutor(eng, ms, em)
		mon := NewMonitor(Config{Policy: ByName(name)}, eng.Rand())

		ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, 30)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &cluster.Task{}
		}
		j := cluster.NewJob(1, "", 0, []*cluster.Phase{ph})

		var running []*cluster.Task
		dispatch := func() {
			for {
				task := ph.NextUnscheduled()
				if task == nil || x.Place(task, false) == nil {
					break
				}
				running = append(running, task)
			}
			for _, task := range mon.Candidates(eng.Now(), running, -1) {
				if ms.AnyFree() && task.RunningCopies() < 2 {
					x.Place(task, true)
				}
			}
		}
		x.OnTaskDone = func(task *cluster.Task, winner *cluster.Copy) {
			mon.TaskCompleted(task, winner)
			for i, rt := range running {
				if rt == task {
					running = append(running[:i], running[i+1:]...)
					break
				}
			}
		}
		x.OnPhaseRunnable = func(*cluster.Phase) { dispatch() }
		x.OnSlotFree = func(cluster.MachineID) { dispatch() }
		var tick func()
		tick = func() {
			if !j.Done() {
				dispatch()
				eng.After(0.1, tick)
			}
		}
		eng.After(0.1, tick)
		x.AdmitJob(j)
		eng.Run()
		if !j.Done() {
			t.Fatalf("%s: job unfinished", name)
		}
		counts[name] = x.SpeculativeCopies
	}
	if counts["Mantri"] > counts["LATE"] {
		t.Errorf("Mantri (%d) speculated more than LATE (%d)", counts["Mantri"], counts["LATE"])
	}
}
