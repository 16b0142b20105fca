package live

// Tests of what a frame costs a live node and who owns it: the offer
// timer (one per worker, aimed by the core's oldest unanswered offer),
// the release point in the node loops, and the allocation pins of the
// two per-frame cycles.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// offerTimers is a TimerService over a real wheel whose timers count
// their own arms; the rig reads the counts of the one the worker holds as
// its offer timer.
type offerTimers struct{ wheel *protocol.TimerWheel }

func (o *offerTimers) AfterFunc(d time.Duration, f func()) protocol.Timer {
	c := &countedTimer{}
	c.armed.Add(1)
	c.pending.Add(1)
	c.Timer = o.wheel.AfterFunc(d, func() {
		c.pending.Add(-1)
		f()
	})
	return c
}

func (o *offerTimers) Now() time.Time { return o.wheel.Now() }

// countedTimer is a timer as offerTimers hands it out: armed is how many
// times it was ever armed, by AfterFunc or Reset, pending how many of
// those arms have not fired yet.
type countedTimer struct {
	protocol.Timer
	armed   atomic.Int64
	pending atomic.Int64
}

func (c *countedTimer) Reset(d time.Duration) bool {
	c.armed.Add(1)
	c.pending.Add(1)
	return c.Timer.Reset(d)
}

// offerLog is the scheduler's end of the rig's one link: it keeps every
// offer the worker sends. notBefore and notAfter bracket the send — the
// clock before and after the worker's turn that made it — so the offer
// falls due between notBefore+rigOfferWait and notAfter+rigOfferWait.
type offerLog struct {
	transport.Conn
	sent []loggedOffer
}

type loggedOffer struct {
	seq, job            uint64
	notBefore, notAfter time.Time
}

func (l *offerLog) Send(m wire.Message) error {
	if o, ok := m.(*wire.Offer); ok {
		l.sent = append(l.sent, loggedOffer{seq: o.Seq, job: o.JobID})
	}
	return nil
}
func (l *offerLog) RemoteAddr() string { return "rig" }

// offerRig is a worker whose loop the test runs by hand, one turn at a
// time, against a scheduler that is just the other end of a link.
type offerRig struct {
	t    *testing.T
	w    *Worker
	link *offerLog
	// abandoned[i] is when the worker's i-th offer timeout was on its
	// counter: the clock after the turn that abandoned the offer.
	abandoned []time.Time
}

// rigOfferWait is the rig's offer timeout in wall clock; offers are sent
// rigGap apart, so a timer re-aimed with a full timeout instead of the
// time left would fire nearly a whole rigOfferWait late.
const (
	rigOfferWait = 200 * time.Millisecond
	rigGap       = 50 * time.Millisecond
	rigSlack     = 100 * time.Millisecond // wheel tick + scheduling latency, generously
)

func newOfferRig(t *testing.T) *offerRig {
	t.Helper()
	wheel := testWheel(t)
	r := &offerRig{t: t, link: &offerLog{}}
	w, err := NewWorkerConns(WorkerConfig{
		ID: 3, Slots: 2, Timers: &offerTimers{wheel: wheel},
		TimeScale: rigOfferWait.Seconds() / defaultOfferTimeout,
	}, []transport.Conn{r.link})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.loop.wall(defaultOfferTimeout); got != rigOfferWait {
		t.Fatalf("the offer timeout is %v of wall clock, want %v", got, rigOfferWait)
	}
	r.w = w
	return r
}

// turn runs one entry through the worker's loop body, brackets the
// offers it sent and stamps the offers it abandoned.
func (r *offerRig) turn(env envelope) {
	began, sent, timeouts := time.Now(), len(r.link.sent), r.w.stats.OfferTimeouts
	r.w.step(env)
	now := time.Now()
	for i := sent; i < len(r.link.sent); i++ {
		r.link.sent[i].notBefore, r.link.sent[i].notAfter = began, now
	}
	for ; timeouts < r.w.stats.OfferTimeouts; timeouts++ {
		r.abandoned = append(r.abandoned, now)
	}
}

// deliver hands the worker one frame from the scheduler.
func (r *offerRig) deliver(m wire.Message) {
	r.turn(envelope{from: r.w.scheds[0], msg: m})
}

func (r *offerRig) reserve(job uint64) {
	r.deliver(&wire.Reserve{JobID: job, SchedulerID: 0, VirtualSize: float64(job), RemTasks: 1})
}

// step waits for the next event a timer posts to the worker's inbox and
// runs it.
func (r *offerRig) step() {
	r.t.Helper()
	r.turn(waitPop(r.t, r.w.loop, 5*rigOfferWait))
}

// offerTimer is the worker's offer timer's arms so far and arms pending.
func (r *offerRig) offerTimer() (armed, pending int64) {
	c, _ := r.w.offerTimer.t.(*countedTimer) // nil before the first arm
	if c == nil {
		return 0, 0
	}
	return c.armed.Load(), c.pending.Load()
}

func (r *offerRig) wantTimers(when string, armed, pending int64) {
	r.t.Helper()
	if a, p := r.offerTimer(); a != armed || p != pending {
		r.t.Fatalf("%s: %d offer timers armed so far and %d pending, want %d and %d", when, a, p, armed, pending)
	}
}

// answer replies "job finished" to offer seq, which ends its round unless
// another reservation is waiting.
func (r *offerRig) answer(seq uint64) {
	r.t.Helper()
	out := r.w.core.OffersOut()
	r.deliver(&wire.NoTask{JobID: r.link.sent[seq-1].job, Seq: seq, JobDone: true})
	if r.w.core.OffersOut() != out-1 {
		r.t.Fatalf("offer %d was not waiting for a reply", seq)
	}
}

// wantAbandonedOnTime checks that the worker's i-th abandonment came when
// the given offer fell due: no earlier, and within the slack after.
func (r *offerRig) wantAbandonedOnTime(i int, seq uint64) {
	r.t.Helper()
	o, at := r.link.sent[seq-1], r.abandoned[i]
	if early := o.notBefore.Add(rigOfferWait).Sub(at); early > 0 {
		r.t.Fatalf("abandonment %d came %v before offer %d fell due", i+1, early, seq)
	}
	if late := at.Sub(o.notAfter.Add(rigOfferWait)); late > rigSlack {
		r.t.Fatalf("abandonment %d came %v after offer %d fell due, want within %v", i+1, late, seq, rigSlack)
	}
}

// TestOfferTimerFollowsTheOldestUnansweredOffer: four offers out (a
// two-slot worker runs two rounds, so offers come in pairs), the three
// oldest answered. There is one timer throughout; when it fires a
// timeout after the first offer it abandons nothing and is re-aimed at
// the one offer still waiting, which is then abandoned when it falls due
// itself — not a full timeout after the first.
func TestOfferTimerFollowsTheOldestUnansweredOffer(t *testing.T) {
	r := newOfferRig(t)
	r.reserve(1) // both rounds offer job 1: seq 1 and 2
	r.answer(1)
	r.answer(2)
	time.Sleep(rigGap)
	r.reserve(2) // both rounds offer job 2: seq 3 and 4
	r.answer(3)
	if len(r.link.sent) != 4 || r.w.core.OffersOut() != 1 {
		t.Fatalf("want four offers sent and one unanswered, have %+v and %d out", r.link.sent, r.w.core.OffersOut())
	}
	r.wantTimers("oldest three answered", 1, 1)

	r.step() // the timer, a timeout after offer 1
	if early := time.Until(r.link.sent[0].notBefore.Add(rigOfferWait)); early > 0 {
		t.Fatalf("offer timer fired %v before the oldest offer fell due", early)
	}
	if n := r.w.stats.OfferTimeouts; n != 0 {
		t.Fatalf("%d offers abandoned a timeout after an answered offer", n)
	}
	r.wantTimers("re-aimed at the offer still waiting", 2, 1)

	r.step() // the timer again, a timeout after offer 4
	if len(r.abandoned) != 1 || r.w.stats.OfferTimeouts != 1 || r.w.core.OffersOut() != 0 {
		t.Fatalf("abandoned %d offers (OfferTimeouts %d, %d still out), want exactly offer 4",
			len(r.abandoned), r.w.stats.OfferTimeouts, r.w.core.OffersOut())
	}
	r.wantAbandonedOnTime(0, 4)
	r.wantTimers("nothing left to wait for", 2, 0)
	if r.w.offerTimerOn {
		t.Fatal("the worker believes a timer is armed with nothing left to wait for")
	}
}

// TestUnansweredOffersExpireInSendOrder: nobody answers. Offers 1 and 2
// go out together; each round that gives up on one offers the other job,
// so 3 and 4 follow a timeout later. The k-th abandonment comes when the
// k-th offer sent falls due, with one timer armed at a time.
func TestUnansweredOffersExpireInSendOrder(t *testing.T) {
	r := newOfferRig(t)
	r.reserve(1) // both rounds offer job 1: seq 1 and 2
	time.Sleep(rigGap)
	r.reserve(2) // both rounds busy: offered when one of them gives up
	for len(r.abandoned) < 3 {
		r.step()
		if _, p := r.offerTimer(); p > 1 {
			t.Fatalf("%d offer timers pending at once", p)
		}
	}
	if len(r.link.sent) < 4 || r.link.sent[2].job != 2 || r.link.sent[3].job != 2 {
		t.Fatalf("rounds that gave up on job 1 did not go on to job 2: %+v", r.link.sent)
	}
	if n := r.w.stats.OfferTimeouts; n != int64(len(r.abandoned)) {
		t.Fatalf("OfferTimeouts = %d after %d abandoned offers", n, len(r.abandoned))
	}
	for i := range r.abandoned {
		r.wantAbandonedOnTime(i, uint64(i+1))
	}
}

// TestAnsweredOffersLeaveNoTimerBehind: every offer is answered. The one
// timer the first offer armed is left to run out (replies do not touch
// it); when it fires it finds nothing waiting, abandons nothing and is
// not re-armed, so the idle worker holds no timer until its next offer.
func TestAnsweredOffersLeaveNoTimerBehind(t *testing.T) {
	r := newOfferRig(t)
	r.reserve(1)
	r.answer(1)
	r.answer(2)
	if n := r.w.core.OffersOut(); n != 0 {
		t.Fatalf("%d offers still unanswered", n)
	}
	r.wantTimers("all answered", 1, 1)
	r.step()
	r.wantTimers("after the leftover timer ran out", 1, 0)
	if r.w.offerTimerOn || r.w.stats.OfferTimeouts != 0 {
		t.Fatalf("idle worker: offerTimerOn %v, OfferTimeouts %d", r.w.offerTimerOn, r.w.stats.OfferTimeouts)
	}
	r.reserve(4)
	r.wantTimers("next offer", 2, 1)
}

// stillTimers is a clock that never moves: it counts the arms made on
// it, by AfterFunc or Reset, keeps the timer AfterFunc made last, and
// fires a timer only when a test calls its fire. Only AfterFunc
// allocates.
type stillTimers struct {
	armed int
	last  *stillTimer
}

func (s *stillTimers) AfterFunc(_ time.Duration, f func()) protocol.Timer {
	s.armed++
	s.last = &stillTimer{s: s, f: f, pending: true}
	return s.last
}
func (s *stillTimers) Now() time.Time { return time.Unix(0, 0) }

type stillTimer struct {
	s       *stillTimers
	f       func()
	pending bool
}

// fire runs the callback, as a clock reaching the deadline would.
func (t *stillTimer) fire() {
	if !t.pending {
		panic("firing a timer that is not armed")
	}
	t.pending = false
	t.f()
}

func (t *stillTimer) Stop() bool {
	was := t.pending
	t.pending = false
	return was
}

func (t *stillTimer) Reset(time.Duration) bool {
	t.s.armed++
	was := t.pending
	t.pending = true
	return was
}

// TestOfferDeadlinesQueueStaysSmall: nothing per offer survives its
// reply. The deadline queue this test used to bound is gone — an offer
// lives in its round, in the core — so the bound is on the worker whole:
// 10,000 answered offers leave none out, one offer timer armed in all
// (replies never touch it and this clock never reaches it), and the heap
// where it was.
func TestOfferDeadlinesQueueStaysSmall(t *testing.T) {
	timers, conn := &stillTimers{}, &discardConn{}
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: 1, Timers: timers}, []transport.Conn{conn})
	if err != nil {
		t.Fatal(err)
	}
	cycle := offerReplyCycle(t, w, conn)
	for i := 0; i < 4*64; i++ {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10000; i++ {
		cycle()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := w.core.OffersOut(); n != 0 {
		t.Fatalf("%d offers out after a reply each", n)
	}
	if timers.armed != 1 {
		t.Fatalf("%d timers armed for 10,256 answered offers, want the first offer's only", timers.armed)
	}
	if grown := int64(after.HeapObjects) - int64(before.HeapObjects); grown > 1000 {
		t.Fatalf("10,000 answered offers left %d objects on the heap", grown)
	}
}

// TestHandledFrameIsReleased: the node loop releases a frame when its
// handler returns, and wire.Release zeroes it — so a handler that kept
// the pointer it was handed would read a zero message (and, later, a
// stranger's frame). The test plays that handler: it keeps the pointer.
func TestHandledFrameIsReleased(t *testing.T) {
	se, we := transport.Pair(16)
	defer se.Close()
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: 1, TimeScale: 0.01, Timers: testWheel(t)}, []transport.Conn{we})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()
	kept := &wire.Reserve{JobID: 9, SchedulerID: 0, VirtualSize: 2, RemTasks: 1}
	w.loop.deliver(envelope{from: w.scheds[0], msg: kept})
	if st := w.Stats(); st.RoundsStarted != 1 { // also orders the loop's writes before our read
		t.Fatalf("the reservation started %d rounds, want 1", st.RoundsStarted)
	}
	if *kept != (wire.Reserve{}) {
		t.Fatalf("a frame kept past its handler still reads %+v, want the zero value", *kept)
	}
}

// discardConn is a Conn whose Send encodes the frame, as every real one
// does before returning, and drops it.
type discardConn struct {
	transport.Conn
	buf []byte
}

func (d *discardConn) Send(m wire.Message) error {
	d.buf = wire.Append(d.buf[:0], m)
	return nil
}
func (d *discardConn) RemoteAddr() string { return "discard" }

// sent is the type of the last frame sent.
func (d *discardConn) sent() wire.MsgType { return wire.MsgType(d.buf[4]) }

// offerReplyCycle returns the worker's per-frame cycle against its one
// scheduler: a probe arrives, an offer goes out of the node's scratch
// under the core's next number, the reply comes back and ends the round.
func offerReplyCycle(t *testing.T, w *Worker, conn *discardConn) func() {
	from := w.scheds[0]
	reserve := &wire.Reserve{JobID: 5, SchedulerID: 0, VirtualSize: 3, RemTasks: 2}
	reply := &wire.NoTask{JobID: 5, JobDone: true}
	return func() {
		reply.Seq++
		w.handle(envelope{from: from, msg: reserve})
		if conn.sent() != wire.TOffer || w.out.offer.Seq != reply.Seq {
			t.Fatalf("the probe was answered with a %s (last offer %d, want %d)", conn.sent(), w.out.offer.Seq, reply.Seq)
		}
		w.handle(envelope{from: from, msg: reply})
	}
}

// TestWorkerOfferReplyCycleAllocs pins the worker's per-frame cycle — a
// probe arrives, an offer goes out of the node's scratch, the reply comes
// back and ends the round — at one allocation at most.
func TestWorkerOfferReplyCycleAllocs(t *testing.T) {
	wheel := protocol.NewTimerWheel(time.Millisecond, 512)
	defer wheel.Stop()
	conn := &discardConn{}
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: 1, Timers: wheel}, []transport.Conn{conn})
	if err != nil {
		t.Fatal(err)
	}
	cycle := offerReplyCycle(t, w, conn)
	for i := 0; i < 4*64; i++ {
		cycle()
	}
	if n := w.core.OffersOut(); n != 0 {
		t.Fatalf("%d offers unanswered after a reply each", n)
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 1 {
		t.Fatalf("worker offer/reply cycle allocates %.0f/op, want at most 1", avg)
	}
}

// TestSchedulerOfferReplyCycleAllocs pins the scheduler's per-frame cycle
// — an offer arrives, the core answers, the reply is rendered into the
// node's scratch and sent — at one allocation at most.
func TestSchedulerOfferReplyCycleAllocs(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{ID: 0, NumSchedulers: 1, Seed: 1, Timers: testWheel(t)})
	if err != nil {
		t.Fatal(err)
	}
	conn := &discardConn{}
	worker := &peer{conn: conn}
	s.handle(envelope{from: worker, msg: &wire.Hello{Role: wire.RoleWorker, ID: 7, Slots: 4}})
	s.handle(envelope{from: &peer{conn: &discardConn{}}, msg: SimpleJob(1, "pin", 4, 1.0)})
	if len(s.jobs) != 1 {
		t.Fatal("job not admitted")
	}
	// Saturate the job so refusable offers are refused and the cycle
	// leaves the scheduler's state as it found it.
	for i := uint64(1); ; i++ {
		s.handle(envelope{from: worker, msg: &wire.Offer{JobID: 1, WorkerID: 7, Seq: i, Refusable: true}})
		if s.out.refuse.Seq == i {
			break
		}
		if i > 100 {
			t.Fatal("job never refused an offer")
		}
	}
	offer := &wire.Offer{JobID: 1, WorkerID: 7, Seq: 1000, Refusable: true, FreeSlots: 1}
	cycle := func() {
		offer.Seq++
		s.handle(envelope{from: worker, msg: offer})
		if s.out.refuse.Seq != offer.Seq {
			t.Fatalf("offer %d was not refused", offer.Seq)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 1 {
		t.Fatalf("scheduler offer/reply cycle allocates %.0f/op, want at most 1", avg)
	}
	if conn.sent() != wire.TRefuse {
		t.Fatalf("last frame sent was a %s", conn.sent())
	}
}
