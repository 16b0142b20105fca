package live

// Tests of what a frame costs a live node and who owns it: the offer
// deadline queue (one timer per worker), the release point in the node
// loops, and the allocation pins of the two per-frame cycles.

import (
	"fmt"
	"log"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// offerTimers is a TimerService over a real wheel that counts the
// worker's offer timers apart from its retry and copy timers: armed is
// how many were ever armed, pending how many are armed and have neither
// fired nor been stopped.
type offerTimers struct {
	wheel   *protocol.TimerWheel
	offerFn uintptr // code pointer of the worker's offerTimerFn
	armed   atomic.Int64
	pending atomic.Int64
}

func (o *offerTimers) AfterFunc(d time.Duration, f func()) protocol.Timer {
	if reflect.ValueOf(f).Pointer() != o.offerFn {
		return o.wheel.AfterFunc(d, f)
	}
	o.armed.Add(1)
	o.pending.Add(1)
	return o.wheel.AfterFunc(d, func() {
		o.pending.Add(-1)
		f()
	})
}

func (o *offerTimers) Now() time.Time { return o.wheel.Now() }

// stampedLog records when each log line was written: the worker logs an
// abandoned offer right after deciding its deadline has passed.
type stampedLog struct {
	mu    sync.Mutex
	lines []stampedLine
}

type stampedLine struct {
	at   time.Time
	text string
}

func (l *stampedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.lines = append(l.lines, stampedLine{time.Now(), string(p)})
	l.mu.Unlock()
	return len(p), nil
}

// offerRig is a worker whose loop the test runs by hand, one event at a
// time, against a scheduler that is just the other end of a pair.
type offerRig struct {
	t      *testing.T
	w      *Worker
	timers *offerTimers
	log    *stampedLog
	// deadline[seq] is the abandon deadline the worker queued for offer seq.
	deadline map[uint64]time.Time
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
	wheel := protocol.NewTimerWheel(time.Millisecond, 512)
	t.Cleanup(wheel.Stop)
	r := &offerRig{t: t, timers: &offerTimers{wheel: wheel}, log: &stampedLog{}, deadline: map[uint64]time.Time{}}
	se, we := transport.Pair(256)
	t.Cleanup(func() { se.Close(); we.Close() })
	w, err := NewWorkerConns(WorkerConfig{
		ID: 3, Slots: 2, RetryJitter: -1, Timers: r.timers,
		TimeScale: rigOfferWait.Seconds() / defaultOfferTimeout,
		Logger:    log.New(r.log, "", 0),
	}, []transport.Conn{we})
	if err != nil {
		t.Fatal(err)
	}
	if w.offerWait != rigOfferWait {
		t.Fatalf("offerWait = %v, want %v", w.offerWait, rigOfferWait)
	}
	r.w = w
	r.timers.offerFn = reflect.ValueOf(w.offerTimerFn).Pointer()
	return r
}

// deliver runs one frame from the scheduler through the worker's loop
// body and notes the deadlines of any offers it sent.
func (r *offerRig) deliver(m wire.Message) {
	r.w.handle(envelope{from: r.w.scheds[0], msg: m})
	r.w.drainDeferred()
	r.note()
}

func (r *offerRig) note() {
	d := &r.w.deadlines
	for _, e := range d.q[d.head:] {
		r.deadline[e.seq] = e.at
	}
}

func (r *offerRig) reserve(job uint64) {
	r.deliver(&wire.Reserve{JobID: job, SchedulerID: 0, VirtualSize: float64(job), RemTasks: 1})
}

// step waits for the next event a timer posts to the worker's inbox and
// runs it.
func (r *offerRig) step() {
	r.t.Helper()
	select {
	case env := <-r.w.loop.inbox:
		r.w.handle(env)
		r.w.drainDeferred()
		r.note()
	case <-time.After(5 * rigOfferWait):
		r.t.Fatal("no timer event reached the worker loop")
	}
}

// abandoned returns the offers the worker has logged as timed out, in
// order, with the time of each log line.
func (r *offerRig) abandoned() (seqs []uint64, at []time.Time) {
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	for _, l := range r.log.lines {
		var seq uint64
		var sched int
		if _, err := fmt.Sscanf(l.text, "offer %d to scheduler %d timed out", &seq, &sched); err == nil {
			seqs = append(seqs, seq)
			at = append(at, l.at)
		}
	}
	return seqs, at
}

func (r *offerRig) wantTimers(when string, armed, pending int64) {
	r.t.Helper()
	if a, p := r.timers.armed.Load(), r.timers.pending.Load(); a != armed || p != pending {
		r.t.Fatalf("%s: %d offer timers armed so far and %d pending, want %d and %d", when, a, p, armed, pending)
	}
}

// answer replies "job finished" to offer seq, which ends its round unless
// another reservation is waiting.
func (r *offerRig) answer(seq uint64) {
	r.t.Helper()
	po, ok := r.w.tracker.pending[seq]
	if !ok {
		r.t.Fatalf("offer %d is not waiting for a reply", seq)
	}
	r.deliver(&wire.NoTask{JobID: uint64(po.job), Seq: seq, JobDone: true})
}

// TestOfferTimerFollowsTheOldestUnansweredOffer: four offers out (a
// two-slot worker runs two rounds, so offers come in pairs), the three
// oldest answered. There is one timer throughout; when it fires at the
// oldest deadline it abandons nothing and is re-aimed at the one offer
// still waiting, which is then abandoned at its own deadline — not a
// full timeout after the first.
func TestOfferTimerFollowsTheOldestUnansweredOffer(t *testing.T) {
	r := newOfferRig(t)
	r.reserve(1) // both rounds offer job 1: seq 1 and 2
	r.answer(1)
	r.answer(2)
	time.Sleep(rigGap)
	r.reserve(2) // both rounds offer job 2: seq 3 and 4
	r.answer(3)
	if len(r.deadline) != 4 || len(r.w.tracker.pending) != 1 {
		t.Fatalf("want four offers sent and one unanswered, have deadlines %v and %d pending", r.deadline, len(r.w.tracker.pending))
	}
	if gap := r.deadline[4].Sub(r.deadline[1]); gap < rigGap {
		t.Fatalf("deadlines of offers 1 and 4 are only %v apart", gap)
	}
	r.wantTimers("oldest three answered", 1, 1)

	r.step() // the timer, at offer 1's deadline
	if now := time.Now(); now.Before(r.deadline[1]) {
		t.Fatalf("offer timer fired %v before the oldest deadline", r.deadline[1].Sub(now))
	}
	if n := r.w.stats.OfferTimeouts; n != 0 {
		t.Fatalf("%d offers abandoned at an answered offer's deadline", n)
	}
	r.wantTimers("re-aimed at the offer still waiting", 2, 1)

	// The timer again, at offer 4's deadline. The wheel counts whole
	// ticks, so it may come a fraction of one early; the worker checks
	// its own clock and waits out the rest.
	seqs, at := r.abandoned()
	for len(seqs) == 0 {
		r.step()
		if p := r.timers.pending.Load(); p > 1 {
			t.Fatalf("%d offer timers pending at once", p)
		}
		seqs, at = r.abandoned()
	}
	if len(seqs) != 1 || seqs[0] != 4 || r.w.stats.OfferTimeouts != 1 {
		t.Fatalf("abandoned %v (OfferTimeouts %d), want exactly offer 4", seqs, r.w.stats.OfferTimeouts)
	}
	if late := at[0].Sub(r.deadline[4]); late < 0 || late > rigSlack {
		t.Fatalf("offer 4 abandoned %v after its deadline, want within [0, %v]", late, rigSlack)
	}
	if r.timers.pending.Load() != 0 || r.w.offerTimerOn {
		t.Fatal("a timer is still armed with nothing left to wait for")
	}
}

// TestUnansweredOffersExpireInSendOrder: nobody answers. The first three
// offers are abandoned in the order they were sent, each no earlier than
// its own deadline and within a tick's slack of it, with one timer armed
// at a time.
func TestUnansweredOffersExpireInSendOrder(t *testing.T) {
	r := newOfferRig(t)
	r.reserve(1) // both rounds offer job 1: seq 1 and 2
	time.Sleep(rigGap)
	r.reserve(2) // both rounds busy: offered when one of them gives up
	for {
		seqs, _ := r.abandoned()
		if len(seqs) >= 3 {
			break
		}
		r.step()
		if p := r.timers.pending.Load(); p > 1 {
			t.Fatalf("%d offer timers pending at once", p)
		}
	}
	seqs, at := r.abandoned()
	if seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("offers abandoned in order %v, want 1 2 3 first", seqs)
	}
	if len(seqs) == 3 && r.w.stats.OfferTimeouts != 3 {
		t.Fatalf("OfferTimeouts = %d after three abandoned offers", r.w.stats.OfferTimeouts)
	}
	for i, seq := range seqs[:3] {
		if late := at[i].Sub(r.deadline[seq]); late < 0 || late > rigSlack {
			t.Fatalf("offer %d abandoned %v after its deadline, want within [0, %v]", seq, late, rigSlack)
		}
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
	if n := len(r.w.tracker.pending); n != 0 {
		t.Fatalf("%d offers still unanswered", n)
	}
	r.wantTimers("all answered", 1, 1)
	r.step()
	r.wantTimers("after the leftover timer ran out", 1, 0)
	if r.w.offerTimerOn || r.w.stats.OfferTimeouts != 0 {
		t.Fatalf("idle worker: offerTimerOn %v, OfferTimeouts %d", r.w.offerTimerOn, r.w.stats.OfferTimeouts)
	}
	if _, queued := r.w.deadlines.oldest(); queued {
		t.Fatal("deadline queue not empty on an idle worker")
	}
	r.reserve(4)
	r.wantTimers("next offer", 2, 1)
}

// TestOfferDeadlinesQueueStaysSmall: the queue reuses its storage; a long
// run of answered offers must not grow it.
func TestOfferDeadlinesQueueStaysSmall(t *testing.T) {
	var d offerDeadlines
	now := time.Now()
	for seq := uint64(1); seq <= 10000; seq++ {
		d.push(seq, now)
		if seq > 3 {
			got, _ := d.oldest()
			if got.seq != seq-3 {
				t.Fatalf("oldest = %d, want %d", got.seq, seq-3)
			}
			d.drop()
		}
	}
	if cap(d.q) > 16 {
		t.Fatalf("three entries in flight grew the queue to %d", cap(d.q))
	}
}

// TestHandledFrameIsReleased: the node loop releases a frame when its
// handler returns, and wire.Release zeroes it — so a handler that kept
// the pointer it was handed would read a zero message (and, later, a
// stranger's frame). The test plays that handler: it keeps the pointer.
func TestHandledFrameIsReleased(t *testing.T) {
	se, we := transport.Pair(16)
	defer se.Close()
	w, err := NewWorkerConns(WorkerConfig{ID: 1, Slots: 1, TimeScale: 0.01}, []transport.Conn{we})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()
	kept := &wire.Reserve{JobID: 9, SchedulerID: 0, VirtualSize: 2, RemTasks: 1}
	w.loop.inbox <- envelope{from: w.scheds[0], msg: kept}
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
	from := w.scheds[0]
	reserve := &wire.Reserve{JobID: 5, SchedulerID: 0, VirtualSize: 3, RemTasks: 2}
	reply := &wire.NoTask{JobID: 5, JobDone: true}
	cycle := func() {
		w.handle(envelope{from: from, msg: reserve})
		if conn.sent() != wire.TOffer || w.out.offer.Seq != w.tracker.next {
			t.Fatalf("the probe was answered with a %s", conn.sent())
		}
		reply.Seq = w.tracker.next
		w.handle(envelope{from: from, msg: reply})
	}
	for i := 0; i < 4*64; i++ {
		cycle()
	}
	if len(w.tracker.pending) != 0 {
		t.Fatalf("%d offers unanswered after a reply each", len(w.tracker.pending))
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 1 {
		t.Fatalf("worker offer/reply cycle allocates %.0f/op, want at most 1", avg)
	}
}

// TestSchedulerOfferReplyCycleAllocs pins the scheduler's per-frame cycle
// — an offer arrives, the core answers, the reply is rendered into the
// node's scratch and sent — at one allocation at most.
func TestSchedulerOfferReplyCycleAllocs(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{ID: 0, NumSchedulers: 1, Seed: 1})
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
