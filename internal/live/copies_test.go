package live

// Tests of what a placed copy costs a worker and who owns its record:
// the engine clock's Reset, the copy lifecycle's allocation pin, and the
// rule that a record whose finish event is in flight is not reused.

import (
	"slices"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// TestEngineTimerReset pins Reset on the virtual cluster's clock, where
// firing times are exact: a timer re-armed after it fired, after it was
// stopped, or while pending fires once, at its new deadline, and Stop
// after Reset cancels the new arm.
func TestEngineTimerReset(t *testing.T) {
	eng := simulator.New(1)
	timers := engineTimers{&VirtualCluster{eng: eng}}
	var fired []float64
	f := func() { fired = append(fired, eng.Now()) }
	// runWant runs the engine dry and checks when the callback ran.
	runWant := func(when string, want ...float64) {
		t.Helper()
		eng.Run()
		if !slices.Equal(fired, want) {
			t.Fatalf("%s: fired at %v, want %v", when, fired, want)
		}
		fired = nil
	}

	tm := timers.AfterFunc(time.Second, f)
	runWant("first arm", 1)
	if tm.Reset(2 * time.Second) {
		t.Fatal("Reset after the fire reported the timer pending")
	}
	runWant("reset after the fire", 3)

	tm = timers.AfterFunc(time.Second, f)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer returned false")
	}
	if tm.Reset(5 * time.Second) {
		t.Fatal("Reset after Stop reported the timer pending")
	}
	runWant("reset after Stop", 8)

	tm = timers.AfterFunc(5*time.Second, f)
	if !tm.Reset(time.Second) {
		t.Fatal("Reset on a pending timer reported it idle")
	}
	runWant("reset while pending", 9)

	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop after Reset returned false")
	}
	runWant("stopped after Reset")
}

// copyRig is a one-slot worker on a clock the test fires by hand, and
// the scheduler's end of its one link.
type copyRig struct {
	t    *testing.T
	w    *Worker
	conn *discardConn
}

func newCopyRig(t *testing.T) *copyRig {
	conn := &discardConn{}
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: 1, Timers: &stillTimers{}}, []transport.Conn{conn})
	if err != nil {
		t.Fatal(err)
	}
	return &copyRig{t: t, w: w, conn: conn}
}

// place probes the worker for job and answers its offer with a task:
// the worker places a copy under the offer's number, which place returns.
func (r *copyRig) place(reserve *wire.Reserve, assign *wire.Assign) uint64 {
	r.t.Helper()
	from := r.w.scheds[0]
	r.w.handle(envelope{from: from, msg: reserve})
	if r.conn.sent() != wire.TOffer {
		r.t.Fatalf("the probe was answered with a %s", r.conn.sent())
	}
	assign.JobID, assign.Seq = reserve.JobID, r.w.out.offer.Seq
	r.w.handle(envelope{from: from, msg: assign})
	if r.w.running[assign.Seq] == nil {
		r.t.Fatalf("the assign for offer %d placed no copy", assign.Seq)
	}
	return assign.Seq
}

// fire fires the timer of the copy running under seq: its finish event
// is posted to the worker's inbox, not run.
func (r *copyRig) fire(seq uint64) {
	r.w.running[seq].timer.t.(*stillTimer).fire()
}

// stepPosted runs the oldest event a timer posted to the worker.
func (r *copyRig) stepPosted() {
	r.t.Helper()
	select {
	case env := <-r.w.loop.inbox:
		r.w.step(env)
	default:
		r.t.Fatal("no event waiting in the worker's inbox")
	}
}

// TestCopyLifecycleAllocatesNothing pins a placed copy's whole life on a
// worker — the Assign handled, the copy placed, its timer fired, the
// finish event stepped, the TaskDone sent — at zero allocations once the
// worker holds a spare record.
func TestCopyLifecycleAllocatesNothing(t *testing.T) {
	r := newCopyRig(t)
	reserve := &wire.Reserve{JobID: 5, SchedulerID: 0, VirtualSize: 3, RemTasks: 1}
	assign := &wire.Assign{Duration: 1}
	cycle := func() {
		seq := r.place(reserve, assign)
		r.fire(seq)
		r.stepPosted()
		if r.conn.sent() != wire.TTaskDone || r.w.out.taskDone.Seq != seq || len(r.w.running) != 0 {
			t.Fatalf("copy %d finished into a %s for %d, %d copies still running",
				seq, r.conn.sent(), r.w.out.taskDone.Seq, len(r.w.running))
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a copy's lifecycle allocates %.2f/op once warm, want 0", avg)
	}
}

// TestKilledCopyAfterFireKeepsItsRecord: copy A's timer fires, then a
// Kill settles A before its finish event runs. Copy B is placed, and
// then A's finish event arrives. It must find A settled and leave B
// running: had the Kill put A's record back on the free list, B would
// run on it and A's event would finish B.
func TestKilledCopyAfterFireKeepsItsRecord(t *testing.T) {
	r := newCopyRig(t)
	a := r.place(&wire.Reserve{JobID: 1, SchedulerID: 0, VirtualSize: 1, RemTasks: 1}, &wire.Assign{Duration: 1})
	r.fire(a)
	r.w.handle(envelope{from: r.w.scheds[0], msg: &wire.Kill{JobID: 1, Seq: a}})
	if _, running := r.w.running[a]; running || r.w.freeSlots != 1 {
		t.Fatalf("the Kill left copy %d running (%d free slots)", a, r.w.freeSlots)
	}
	b := r.place(&wire.Reserve{JobID: 2, SchedulerID: 0, VirtualSize: 1, RemTasks: 1}, &wire.Assign{Duration: 1})
	r.stepPosted() // A's finish event
	if _, running := r.w.running[b]; !running || r.w.freeSlots != 0 {
		t.Fatalf("copy %d stopped running when killed copy %d's finish event arrived", b, a)
	}
	if r.conn.sent() == wire.TTaskDone {
		t.Fatalf("a TaskDone for %d went out", r.w.out.taskDone.Seq)
	}
	r.fire(b)
	r.stepPosted()
	if r.conn.sent() != wire.TTaskDone || r.w.out.taskDone.Seq != b || r.w.out.taskDone.Killed {
		t.Fatalf("copy %d did not finish into its own TaskDone", b)
	}
}

// TestWorkerCarvesItsCopyRecords: a worker is built with one copy
// record per slot on its free list, each bound to its finish event, so
// its first copy in every slot takes a record and builds none.
func TestWorkerCarvesItsCopyRecords(t *testing.T) {
	const slots = 4
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: slots, Timers: &stillTimers{}}, []transport.Conn{&discardConn{}})
	if err != nil {
		t.Fatal(err)
	}
	carved := map[*runningCopy]bool{}
	for _, rc := range w.spare {
		carved[rc] = true
	}
	if len(carved) != slots || cap(w.spare) != slots {
		t.Fatalf("built with %d records on a list of cap %d, want %d and %d", len(carved), cap(w.spare), slots, slots)
	}
	for i := 0; i < slots; i++ {
		if rc := w.newCopy(); !carved[rc] || rc.timer.ev.fn == nil {
			t.Fatalf("copy %d got record %p, not one carved at build with its finish event bound", i, rc)
		}
	}
}
