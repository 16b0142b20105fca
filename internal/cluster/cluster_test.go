package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/hopper-sim/hopper/internal/simulator"
)

// mkJob builds a single-phase job with n tasks of the given mean.
func mkJob(id JobID, n int, mean float64) *Job {
	ph := &Phase{MeanTaskDuration: mean, Tasks: make([]*Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &Task{}
	}
	return NewJob(id, "", 0, []*Phase{ph})
}

// mkChain builds a chain job: each phase depends on the previous.
func mkChain(id JobID, tasksPerPhase []int, mean float64, transfer float64) *Job {
	var phases []*Phase
	for pi, n := range tasksPerPhase {
		ph := &Phase{MeanTaskDuration: mean, Tasks: make([]*Task, n)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &Task{}
		}
		if pi > 0 {
			ph.Deps = []int{pi - 1}
			ph.TransferWork = transfer
		}
		phases = append(phases, ph)
	}
	return NewJob(id, "", 0, phases)
}

func detModel() ExecModel {
	// Deterministic-ish: beta 2 keeps the tail mild for timing assertions.
	return ExecModel{Beta: 1.999, RemotePenalty: 1}
}

func TestMachinesAcquireRelease(t *testing.T) {
	ms := NewMachines(4, 2)
	if ms.TotalSlots() != 8 || ms.FreeSlots() != 8 {
		t.Fatalf("slots: total=%d free=%d", ms.TotalSlots(), ms.FreeSlots())
	}
	ms.Acquire(0)
	ms.Acquire(0)
	if ms.Get(0).Free != 0 {
		t.Fatal("machine 0 should be full")
	}
	if got := ms.FreeSlots(); got != 6 {
		t.Fatalf("free=%d, want 6", got)
	}
	ms.Release(0)
	if ms.Get(0).Free != 1 {
		t.Fatal("release failed")
	}
}

func TestMachinesAcquireFullPanics(t *testing.T) {
	ms := NewMachines(1, 1)
	ms.Acquire(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic acquiring full machine")
		}
	}()
	ms.Acquire(0)
}

func TestMachinesOverReleasePanics(t *testing.T) {
	ms := NewMachines(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic over-releasing")
		}
	}()
	ms.Release(0)
}

func TestRandomFreeRespectsOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ms := NewMachines(3, 1)
	ms.Acquire(0)
	ms.Acquire(2)
	for i := 0; i < 50; i++ {
		if got := ms.RandomFree(rng); got != 1 {
			t.Fatalf("RandomFree = %v, want 1", got)
		}
	}
	ms.Acquire(1)
	if got := ms.RandomFree(rng); got != -1 {
		t.Fatalf("RandomFree on full cluster = %v, want -1", got)
	}
}

func TestFreeSlotIndexConsistency(t *testing.T) {
	// Property: after arbitrary acquire/release sequences, the free-set
	// matches per-machine Free counts.
	f := func(ops []uint8) bool {
		ms := NewMachines(5, 2)
		for _, op := range ops {
			id := MachineID(op % 5)
			if op&0x80 != 0 {
				if ms.Get(id).Free > 0 {
					ms.Acquire(id)
				}
			} else {
				if ms.Get(id).Free < ms.Get(id).Slots {
					ms.Release(id)
				}
			}
		}
		// Validate the index.
		rng := rand.New(rand.NewSource(3))
		anyFree := ms.FreeSlots() > 0
		if anyFree != ms.AnyFree() {
			return false
		}
		if anyFree {
			id := ms.RandomFree(rng)
			if id < 0 || ms.Get(id).Free == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSubsetDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ms := NewMachines(50, 1)
	for k := 1; k <= 50; k += 7 {
		got := ms.RandomSubset(rng, k, nil)
		if len(got) != k {
			t.Fatalf("k=%d: got %d machines", k, len(got))
		}
		seen := map[MachineID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("k=%d: duplicate machine %d", k, id)
			}
			seen[id] = true
		}
	}
	if got := ms.RandomSubset(rng, 100, nil); len(got) != 50 {
		t.Fatalf("oversized k should return all machines, got %d", len(got))
	}
}

func TestExecutorRunsJobToCompletion(t *testing.T) {
	eng := simulator.New(1)
	ms := NewMachines(4, 2)
	x := NewExecutor(eng, ms, detModel())
	j := mkJob(1, 10, 1.0)

	var done []*Task
	jobDone := false
	x.OnTaskDone = func(task *Task, winner *Copy) { done = append(done, task) }
	x.OnJobDone = func(job *Job) { jobDone = true }
	x.OnPhaseRunnable = func(p *Phase) {
		for {
			task := p.NextUnscheduled()
			if task == nil || x.Place(task, false) == nil {
				return
			}
		}
	}
	// Re-dispatch on completions.
	x.OnSlotFree = func(MachineID) {
		for _, p := range j.RunnablePhases() {
			task := p.NextUnscheduled()
			if task != nil {
				x.Place(task, false)
			}
		}
	}
	x.AdmitJob(j)
	eng.Run()

	if !jobDone || !j.Done() {
		t.Fatal("job did not complete")
	}
	if len(done) != 10 {
		t.Fatalf("%d tasks done, want 10", len(done))
	}
	if ms.FreeSlots() != ms.TotalSlots() {
		t.Fatalf("slots leaked: %d free of %d", ms.FreeSlots(), ms.TotalSlots())
	}
	if j.CompletionTime() <= 0 {
		t.Fatal("non-positive completion time")
	}
}

func TestSpeculativeRaceKillsLoser(t *testing.T) {
	eng := simulator.New(1)
	ms := NewMachines(2, 1)
	x := NewExecutor(eng, ms, detModel())
	j := mkJob(1, 1, 1.0)
	x.AdmitJob(j)
	task := j.Phases[0].Tasks[0]

	c1 := x.Place(task, false)
	c2 := x.Place(task, true)
	if c1 == nil || c2 == nil {
		t.Fatal("placement failed")
	}
	eng.Run()

	if task.State != TaskDone {
		t.Fatal("task not done")
	}
	winners, killed := 0, 0
	for _, c := range task.Copies {
		if c.Won {
			winners++
		}
		if c.Killed {
			killed++
		}
	}
	if winners != 1 || killed != 1 {
		t.Fatalf("winners=%d killed=%d, want 1/1", winners, killed)
	}
	if x.CopiesKilled != 1 {
		t.Fatalf("CopiesKilled=%d", x.CopiesKilled)
	}
	if ms.FreeSlots() != 2 {
		t.Fatalf("slots not reclaimed: %d free", ms.FreeSlots())
	}
	// The winner is whichever copy drew the shorter duration.
	if c1.Duration < c2.Duration && !c1.Won {
		t.Fatal("shorter copy lost the race")
	}
}

// TestTaskWinAndDropCopy pins the plane-free copy lifecycle both the
// Executor and the live scheduler end copies through: a dropped copy
// leaves Task.Copies marked Killed, and a win hands every other running
// copy — and only those — to the loser callback in placement order.
func TestTaskWinAndDropCopy(t *testing.T) {
	j := mkJob(1, 1, 1.0)
	task := j.Phases[0].Tasks[0]
	a := task.StartCopy(0, 0, false, 5)
	lost := task.StartCopy(0, 1, true, 5)
	b := task.StartCopy(1, 2, true, 5)
	c := task.StartCopy(1, 3, true, 5)

	task.DropCopy(lost)
	if !lost.Killed || len(task.Copies) != 3 {
		t.Fatalf("dropped copy: Killed=%v, %d copies left, want true/3", lost.Killed, len(task.Copies))
	}
	var losers []*Copy
	task.Win(b, 2, func(l *Copy) { losers = append(losers, l) })
	if !b.Won || b.Killed || task.State != TaskDone || task.DoneAt != 2 {
		t.Fatalf("winner Won=%v Killed=%v, task state %v done at %v", b.Won, b.Killed, task.State, task.DoneAt)
	}
	if len(losers) != 2 || losers[0] != a || losers[1] != c || !a.Killed || !c.Killed {
		t.Fatalf("losers %v, want [a c] both Killed", losers)
	}
}

// TestCopyIsOneSizeClass: copies are carved from per-phase slabs
// (Phase.newCopy), so Copy's size is the slabs' stride and every copy a
// run places costs it. The record both planes share, finish handle
// included, stays at its packed layout: above 64 bytes a field was
// added, at 48 or less the layout changed and this pin should move with
// it.
func TestCopyIsOneSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Copy{}); n <= 48 || n > 64 {
		t.Fatalf("unsafe.Sizeof(Copy{}) = %d, want 48 < n <= 64", n)
	}
}

// TestPlacementAllocatesOnlyTheCopy pins a placement's own cost at zero:
// the service-time draw reseeds the Executor's CopySource, the finish
// event is posted under the handle the Copy embeds, and the Copy and the
// task's Copies list come from its phase's slabs. Once the phase has
// started, a PlaceOn → KillCopy → Run cycle allocates amortized nothing,
// exactly as StartCopy and DropCopy alone — the copy slab grows by a
// quarter of what it has carved, so even a one-task phase re-placing
// forever allocates a vanishing share of a slab per copy.
func TestPlacementAllocatesOnlyTheCopy(t *testing.T) {
	eng := simulator.New(1)
	x := NewExecutor(eng, NewMachines(2, 1), DefaultExecModel())
	j := mkJob(1, 1, 1.0)
	x.AdmitJob(j)
	eng.Run()
	task := j.Phases[0].Tasks[0]
	place := func() {
		x.KillCopy(x.PlaceOn(task, 0, true))
		eng.Run()
	}
	alone := func() { task.DropCopy(task.StartCopy(eng.Now(), 0, true, 1)) }
	place()
	alone()
	p, a := testing.AllocsPerRun(200, place), testing.AllocsPerRun(200, alone)
	if a != 0 {
		t.Fatalf("StartCopy+DropCopy allocate %v per copy, want amortized 0", a)
	}
	if p != 0 {
		t.Fatalf("a placement allocates %v per copy, want amortized 0", p)
	}
}

// TestCopySlabsCarvedAtFirstPlacement: building a job carves nothing; the
// phase's first placement gives every task a Copies list of capacity 2
// in one shared array; a third copy moves that task's list to an array
// of its own and leaves its neighbour's list, spare slot included,
// untouched.
func TestCopySlabsCarvedAtFirstPlacement(t *testing.T) {
	j := mkJob(1, 3, 1.0)
	ts := j.Phases[0].Tasks
	for i, task := range ts {
		if task.Copies != nil {
			t.Fatalf("task %d has a Copies list before any placement", i)
		}
	}
	a0 := ts[0].StartCopy(0, 0, false, 5)
	for i, task := range ts {
		if cap(task.Copies) != 2 {
			t.Fatalf("task %d: Copies capacity %d after the phase's first placement, want 2", i, cap(task.Copies))
		}
	}
	slot := func(i int) uintptr { return uintptr(unsafe.Pointer(&ts[i].Copies[:1][0])) }
	if stride := 2 * unsafe.Sizeof(a0); slot(1)-slot(0) != stride || slot(2)-slot(1) != stride {
		t.Fatal("the tasks' Copies lists are not consecutive pairs of one array")
	}
	n0 := ts[1].StartCopy(0, 1, false, 5)
	a1 := ts[0].StartCopy(1, 2, true, 5)
	shared := &ts[0].Copies[0]
	a2 := ts[0].StartCopy(2, 3, true, 5)
	if &ts[0].Copies[0] == shared || cap(ts[0].Copies) <= 2 {
		t.Fatal("a third copy did not move its task's list off the shared array")
	}
	if got := ts[0].Copies; len(got) != 3 || got[0] != a0 || got[1] != a1 || got[2] != a2 {
		t.Fatalf("task 0's copies %v, want [a0 a1 a2]", got)
	}
	if got := ts[1].Copies; len(got) != 1 || got[0] != n0 || got[:2][1] != nil {
		t.Fatalf("the neighbour's list changed: %v (spare %v)", got, got[:2][1])
	}
	n1 := ts[1].StartCopy(3, 4, true, 5)
	if got := ts[1].Copies; len(got) != 2 || got[0] != n0 || got[1] != n1 || len(ts[0].Copies) != 3 {
		t.Fatalf("the neighbour's second copy: task 1 %v, task 0 %d copies", got, len(ts[0].Copies))
	}
}

func TestChainPhasesUnlockInOrder(t *testing.T) {
	eng := simulator.New(1)
	ms := NewMachines(4, 4)
	x := NewExecutor(eng, ms, detModel())
	j := mkChain(1, []int{4, 2}, 1.0, 0)

	var runnable []int
	dispatch := func() {
		for _, p := range j.RunnablePhases() {
			for {
				task := p.NextUnscheduled()
				if task == nil || x.Place(task, false) == nil {
					break
				}
			}
		}
	}
	x.OnPhaseRunnable = func(p *Phase) { runnable = append(runnable, p.Index); dispatch() }
	x.OnSlotFree = func(MachineID) { dispatch() }
	x.AdmitJob(j)
	eng.Run()

	if !j.Done() {
		t.Fatal("chain job did not finish")
	}
	if len(runnable) != 2 || runnable[0] != 0 || runnable[1] != 1 {
		t.Fatalf("phase unlock order = %v", runnable)
	}
	if j.Phases[1].RunnableAt < j.Phases[0].DoneAt {
		t.Fatal("phase 1 runnable before phase 0 finished")
	}
}

func TestTransferGatesPhaseStart(t *testing.T) {
	eng := simulator.New(1)
	ms := NewMachines(4, 4)
	x := NewExecutor(eng, ms, detModel())
	// Huge transfer: phase 1 (2 tasks) must wait ~ transfer/(tasks*overlap).
	j := mkChain(1, []int{2, 2}, 1.0, 800)

	dispatch := func() {
		for _, p := range j.RunnablePhases() {
			for {
				task := p.NextUnscheduled()
				if task == nil || x.Place(task, false) == nil {
					break
				}
			}
		}
	}
	x.OnPhaseRunnable = func(*Phase) { dispatch() }
	x.OnSlotFree = func(MachineID) { dispatch() }
	x.AdmitJob(j)
	eng.Run()

	wantGate := 800.0 / 2 / transferOverlapFactor // 100s from first upstream completion
	if j.Phases[1].RunnableAt < wantGate {
		t.Fatalf("phase 1 started at %v, want >= %v (transfer-gated)", j.Phases[1].RunnableAt, wantGate)
	}
}

func TestBushyDAGJoinWaitsForBothParents(t *testing.T) {
	eng := simulator.New(1)
	ms := NewMachines(8, 2)
	x := NewExecutor(eng, ms, detModel())
	// Two roots, one join.
	p0 := &Phase{MeanTaskDuration: 1, Tasks: []*Task{{}, {}}}
	p1 := &Phase{MeanTaskDuration: 5, Tasks: []*Task{{}, {}}}
	p2 := &Phase{MeanTaskDuration: 1, Tasks: []*Task{{}}, Deps: []int{0, 1}}
	j := NewJob(1, "", 0, []*Phase{p0, p1, p2})

	dispatch := func() {
		for _, p := range j.RunnablePhases() {
			for {
				task := p.NextUnscheduled()
				if task == nil || x.Place(task, false) == nil {
					break
				}
			}
		}
	}
	x.OnPhaseRunnable = func(*Phase) { dispatch() }
	x.OnSlotFree = func(MachineID) { dispatch() }
	x.AdmitJob(j)
	eng.Run()

	if !j.Done() {
		t.Fatal("bushy job did not finish")
	}
	latestParent := p0.DoneAt
	if p1.DoneAt > latestParent {
		latestParent = p1.DoneAt
	}
	if p2.RunnableAt < latestParent {
		t.Fatalf("join ran at %v before both parents done (%v)", p2.RunnableAt, latestParent)
	}
}

func TestLocalityPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	em := ExecModel{Beta: 1.999, RemotePenalty: 2.0}
	var local, remote float64
	n := 20000
	for i := 0; i < n; i++ {
		local += em.Duration(rng, 1, true)
		remote += em.Duration(rng, 1, false)
	}
	ratio := remote / local
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("remote/local = %v, want ~2", ratio)
	}
}

func TestLocalOn(t *testing.T) {
	task := &Task{Replicas: []MachineID{1, 3}}
	if !task.LocalOn(1) || !task.LocalOn(3) || task.LocalOn(2) {
		t.Fatal("LocalOn replica check wrong")
	}
	free := &Task{}
	if !free.LocalOn(0) {
		t.Fatal("task without replicas should be local anywhere")
	}
}

func TestPhaseCursorOutOfOrderScheduling(t *testing.T) {
	j := mkJob(1, 5, 1)
	p := j.Phases[0]
	eng := simulator.New(1)
	ms := NewMachines(8, 2)
	x := NewExecutor(eng, ms, detModel())
	x.AdmitJob(j)

	// Place task 3 first (locality-relaxed order), then ensure the cursor
	// still finds tasks 0..2.
	x.PlaceOn(p.Tasks[3], 0, false)
	if got := p.UnscheduledTasks(); got != 4 {
		t.Fatalf("unscheduled=%d, want 4", got)
	}
	next := p.NextUnscheduled()
	if next == nil || next.Index != 0 {
		t.Fatalf("NextUnscheduled = %v, want task 0", next)
	}
	for p.NextUnscheduled() != nil {
		x.Place(p.NextUnscheduled(), false)
	}
	if p.UnscheduledTasks() != 0 {
		t.Fatal("cursor missed tasks")
	}
}

func TestCompletionTimePanicsOnUnfinished(t *testing.T) {
	j := mkJob(1, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	j.CompletionTime()
}

func TestSlotConservationUnderHeavySpeculation(t *testing.T) {
	// Invariant: whatever the race outcomes, every slot is eventually
	// returned and no task completes twice.
	f := func(seed int64) bool {
		eng := simulator.New(seed)
		ms := NewMachines(3, 2)
		em := ExecModel{Beta: 1.2, RemotePenalty: 1}
		x := NewExecutor(eng, ms, em)
		j := mkJob(1, 8, 1.0)
		p := j.Phases[0]

		dispatch := func() {
			for {
				task := p.NextUnscheduled()
				if task == nil {
					break
				}
				if x.Place(task, false) == nil {
					break
				}
			}
			// Speculate any running task with one copy.
			for _, task := range p.Tasks {
				if task.State == TaskRunning && task.RunningCopies() == 1 && ms.AnyFree() {
					x.Place(task, true)
				}
			}
		}
		x.OnPhaseRunnable = func(*Phase) { dispatch() }
		x.OnSlotFree = func(MachineID) { dispatch() }
		x.AdmitJob(j)
		eng.Run()
		return j.Done() && ms.FreeSlots() == ms.TotalSlots() && x.TasksDone == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}
