package live

// Tests of what a placed copy costs a worker and where it runs: the
// engine clock's Reset, the copy lifecycle's allocation pin, and the
// worker's slots as its copy records, free the moment a copy ends.

import (
	"slices"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/protocol"
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
	if r.w.copyBySeq(assign.Seq) == nil {
		r.t.Fatalf("the assign for offer %d placed no copy", assign.Seq)
	}
	return assign.Seq
}

// fire fires the timer of the copy running under seq: its finish event
// is posted to the worker's inbox, not run.
func (r *copyRig) fire(seq uint64) {
	r.w.copyBySeq(seq).timer.t.(*stillTimer).fire()
}

// stepPosted runs the oldest event a timer posted to the worker.
func (r *copyRig) stepPosted() {
	r.t.Helper()
	env, ok := r.w.loop.pop()
	if !ok {
		r.t.Fatal("no event waiting in the worker's inbox")
	}
	r.w.step(env)
}

// TestCopyLifecycleAllocatesNothing pins a placed copy's whole life on a
// worker — the Assign handled, the copy placed, its timer fired, the
// finish event stepped, the TaskDone sent — at zero allocations once its
// slot's timer has been armed once.
func TestCopyLifecycleAllocatesNothing(t *testing.T) {
	r := newCopyRig(t)
	reserve := &wire.Reserve{JobID: 5, SchedulerID: 0, VirtualSize: 3, RemTasks: 1}
	assign := &wire.Assign{Duration: 1}
	cycle := func() {
		seq := r.place(reserve, assign)
		r.fire(seq)
		r.stepPosted()
		if r.conn.sent() != wire.TTaskDone || r.w.out.taskDone.Seq != seq || r.w.freeSlots != 1 {
			t.Fatalf("copy %d finished into a %s for %d, %d slots free",
				seq, r.conn.sent(), r.w.out.taskDone.Seq, r.w.freeSlots)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a copy's lifecycle allocates %.2f/op once warm, want 0", avg)
	}
}

// TestKilledCopyAfterFireFreesItsSlot: copy A's timer fires, then a
// Kill settles A before its finish event runs. A's slot is free at once:
// copy B is placed on A's record, and then A's finish event arrives. The
// loop drops it, since the Kill withdrew it, so B keeps running and
// later finishes into its own TaskDone.
func TestKilledCopyAfterFireFreesItsSlot(t *testing.T) {
	r := newCopyRig(t)
	a := r.place(&wire.Reserve{JobID: 1, SchedulerID: 0, VirtualSize: 1, RemTasks: 1}, &wire.Assign{Duration: 1})
	r.fire(a)
	r.w.handle(envelope{from: r.w.scheds[0], msg: &wire.Kill{JobID: 1, Seq: a}})
	if r.w.copyBySeq(a) != nil || r.w.freeSlots != 1 {
		t.Fatalf("the Kill left copy %d running (%d free slots)", a, r.w.freeSlots)
	}
	b := r.place(&wire.Reserve{JobID: 2, SchedulerID: 0, VirtualSize: 1, RemTasks: 1}, &wire.Assign{Duration: 1})
	if rc := r.w.copyBySeq(b); rc != &r.w.copies[0] {
		t.Fatalf("copy %d runs on %p, not on the one slot's record %p", b, rc, &r.w.copies[0])
	}
	r.stepPosted() // A's finish event
	if r.w.copyBySeq(b) == nil || r.w.freeSlots != 0 {
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
// record per slot, and its slots are those records: as many copies as
// slots run at once, each on a record of its own carved at build, and
// one more is turned away.
func TestWorkerCarvesItsCopyRecords(t *testing.T) {
	const slots = 4
	conn := &discardConn{}
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: slots, Timers: &stillTimers{}}, []transport.Conn{conn})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.copies) != slots || cap(w.copies) != slots {
		t.Fatalf("built with %d records (cap %d), want %d", len(w.copies), cap(w.copies), slots)
	}
	// place is the core's Place callback, for the assign in curReply.
	place := func(seq uint64) bool {
		w.curReply.seq, w.curReply.from, w.curReply.msg = seq, w.scheds[0], &wire.Assign{JobID: seq, Duration: 1}
		return w.place(0, protocol.Reply{})
	}
	used := map[*runningCopy]bool{}
	for seq := uint64(1); seq <= slots; seq++ {
		if !place(seq) {
			t.Fatalf("copy %d was turned away with %d slots free", seq, w.freeSlots)
		}
		rc, carved := w.copyBySeq(seq), false
		for i := range w.copies {
			carved = carved || rc == &w.copies[i]
		}
		if !carved || used[rc] {
			t.Fatalf("copy %d runs on record %p: carved at build %v, shared with another copy %v", seq, rc, carved, used[rc])
		}
		used[rc] = true
	}
	if place(slots+1) || conn.sent() != wire.TTaskDone || !w.out.taskDone.Killed {
		t.Fatalf("a copy past the last slot was not turned away with a killed TaskDone")
	}
}
