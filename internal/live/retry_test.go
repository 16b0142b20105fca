package live

// Tests of the worker's one retry timer: a firing already on its way to
// the loop when the core cancels or supersedes its arm never reaches the
// core (the loop's rule, TestLoopTimerCancelsExactly, as the worker's
// exec drives it), and a steady arm/fire cycle allocates nothing.

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// retryRig is a one-slot worker on a clock that never moves. Every
// reservation it holds is answered with an empty NoTask, which cools the
// entry (for good: the clock stands still), so a round ends unplaced and
// the core arms a retry. Each RetryFired that reaches the core then arms
// a new one — it finds nothing to offer — which is what the tests count
// on timers.armed.
type retryRig struct {
	t      *testing.T
	w      *Worker
	conn   *discardConn
	timers *stillTimers
}

func newRetryRig(t *testing.T) *retryRig {
	timers, conn := &stillTimers{}, &discardConn{}
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: 1, Timers: timers}, []transport.Conn{conn})
	if err != nil {
		t.Fatal(err)
	}
	return &retryRig{t: t, w: w, conn: conn, timers: timers}
}

// reserve probes the worker for job and answers every offer it makes
// empty-handed, until the round ends.
func (r *retryRig) reserve(job uint64) {
	r.t.Helper()
	from := r.w.scheds[0]
	r.w.handle(envelope{from: from, msg: &wire.Reserve{JobID: job, SchedulerID: 0, VirtualSize: 1, RemTasks: 1}})
	for r.w.core.OffersOut() > 0 {
		o := r.w.out.offer
		r.w.handle(envelope{from: from, msg: &wire.NoTask{JobID: o.JobID, Seq: o.Seq}})
	}
	if !r.w.retry.armed {
		r.t.Fatalf("no retry armed after job %d's round", job)
	}
}

// fire fires the retry timer: its event is posted, not run.
func (r *retryRig) fire() { r.w.retry.t.(*stillTimer).fire() }

// wantReached steps the oldest posted event and checks whether it
// reached the core's RetryFired, which re-arms the retry.
func (r *retryRig) wantReached(when string, reached bool) {
	r.t.Helper()
	before := r.timers.armed
	stepInbox(r.t, r.w.loop, r.w.step)
	if got := r.timers.armed > before; got != reached {
		r.t.Fatalf("%s: the firing reached the core: %v, want %v", when, got, reached)
	}
}

// TestStaleRetryFiringNeverReachesTheCore: a firing queued before its
// arm was cancelled and re-armed (a freed slot's Kick does both at
// once), or cancelled by a fresh reservation and re-armed when that
// round ended, is dropped on the loop; the arm that replaced it fires
// through to the core.
func TestStaleRetryFiringNeverReachesTheCore(t *testing.T) {
	r := newRetryRig(t)
	r.reserve(1)

	r.fire()
	r.w.exec(r.w.core.Kick()) // WCancelRetry, then WArmRetry
	r.wantReached("fired, then cancelled and re-armed", false)
	r.fire()
	r.wantReached("the re-arm's own firing", true)

	r.fire()
	r.reserve(2) // cancels the retry, and its round re-arms one
	r.wantReached("fired, then cancelled by a reservation and re-armed", false)
	r.fire()
	r.wantReached("the round's re-arm firing", true)
	if r.w.retry.stale != 0 {
		t.Fatalf("%d stale firings still expected", r.w.retry.stale)
	}
}

// TestRetryArmFireCycleAllocatesNothing pins the steady retry cycle — the
// timer fires, the loop runs RetryFired, the core re-arms and the timer
// is reset — at zero allocations.
func TestRetryArmFireCycleAllocatesNothing(t *testing.T) {
	r := newRetryRig(t)
	r.reserve(1)
	cycle := func() {
		r.fire()
		r.wantReached("a steady retry", true)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a retry arm/fire cycle allocates %.2f/op, want 0", avg)
	}
}
