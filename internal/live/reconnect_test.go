package live

import (
	"slices"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// TestReconnectScheduler drives a worker's replacement-connection path
// without Run: each ReconnectScheduler call posts the attach, and the
// test steps that envelope itself. An occupied dial slot turns the offer
// away and leaves no peer behind; once the slot's connection is lost,
// the same call re-registers with the copies that slot had placed, in
// seq order.
func TestReconnectScheduler(t *testing.T) {
	var ends []transport.Conn
	pair := func() (transport.Conn, transport.Conn) {
		a, b := transport.Pair(0)
		ends = append(ends, a, b)
		return a, b
	}
	s0, w0 := pair()
	_, w1 := pair()
	w, err := NewWorkerConns(WorkerConfig{ID: 3, Slots: 4, Timers: &stillTimers{}}, []transport.Conn{w0, w1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Stop()
		for _, c := range ends {
			c.Close()
		}
	})
	// Copies placed by slot 0 (seqs 7, 2, 4, out of order) and by slot 1.
	for i, c := range []runningCopy{
		{seq: 7, sidx: 0, msg: wire.Assign{JobID: 1, TaskIndex: 2, Duration: 50}},
		{seq: 2, sidx: 0, msg: wire.Assign{JobID: 1, TaskIndex: 0, Duration: 50}},
		{seq: 5, sidx: 1, msg: wire.Assign{JobID: 2, TaskIndex: 0, Duration: 50}},
		{seq: 4, sidx: 0, msg: wire.Assign{JobID: 1, Phase: 1, TaskIndex: 0, Speculative: true, Duration: 50}},
	} {
		rc := &w.copies[i]
		rc.seq, rc.sidx, rc.msg, rc.from = c.seq, c.sidx, c.msg, w.scheds[c.sidx]
		w.loop.arm(&rc.timer, w.loop.wall(c.msg.Duration))
	}
	// reconnect offers slot 0 one end of a new pair and returns both.
	reconnect := func() (offered, far transport.Conn) {
		offered, far = pair()
		w.ReconnectScheduler(0, offered)
		w.step(waitPop(t, w.loop, 5*time.Second)) // the attach, queued before the reader started
		return offered, far
	}

	before := slices.Clone(w.scheds)
	_, far := reconnect()
	if _, err := far.Recv(); err == nil {
		t.Fatal("occupied slot: the offered connection is still open")
	}
	// Its reader ends on the closed connection; stepping that changes
	// nothing either.
	w.step(waitPop(t, w.loop, 5*time.Second))
	if !slices.Equal(w.scheds, before) {
		t.Fatalf("occupied slot: scheds changed from %v to %v", before, w.scheds)
	}

	old := w.scheds[0]
	w.step(received(old, nil, transport.ErrClosed))
	if w.scheds[0] != nil {
		t.Fatal("lost connection still holds its dial slot")
	}
	if _, err := s0.Recv(); err != nil {
		t.Fatalf("reading the first Hello: %v", err)
	}
	if _, err := s0.Recv(); err == nil {
		t.Fatal("the lost connection was not closed")
	}
	offered, far := reconnect()
	if w.scheds[0] == nil || w.scheds[0].conn != offered {
		t.Fatal("free slot: the offered connection was not attached")
	}
	m, err := far.Recv()
	if err != nil {
		t.Fatal(err)
	}
	hello := m.(*wire.Hello)
	var seqs []uint64
	for _, rc := range hello.Running {
		seqs = append(seqs, rc.Seq)
		want := w.copyBySeq(rc.Seq).msg
		if rc.JobID != want.JobID || rc.Phase != want.Phase || rc.TaskIndex != want.TaskIndex ||
			rc.Speculative != want.Speculative || rc.Remaining <= 0 || rc.Remaining > want.Duration {
			t.Fatalf("inventory entry %+v does not describe copy %+v", rc, want)
		}
	}
	if !slices.Equal(seqs, []uint64{2, 4, 7}) {
		t.Fatalf("re-registration reports seqs %v, want slot 0's copies in seq order [2 4 7]", seqs)
	}
	for _, rc := range w.runningBySeq() {
		if want := w.scheds[rc.sidx]; rc.from != want {
			t.Fatalf("copy %d reports to %p, want its slot's connection %p", rc.seq, rc.from, want)
		}
	}
}

// TestReplyOnUnnamedConnectionResolvesNothing: a worker learns which
// scheduler a connection reaches from the first Reserve on it, whatever
// the dial order. Here the second connection is named scheduler 0, and
// the worker's offer goes out on it. The same reply on the first
// connection, which no Reserve has named, answers nothing: the offer
// stays out and no copy starts. On the named connection it places.
func TestReplyOnUnnamedConnectionResolvesNothing(t *testing.T) {
	s0, w0 := transport.Pair(0)
	s1, w1 := transport.Pair(0)
	w, err := NewWorkerConns(WorkerConfig{ID: 3, Slots: 1, Timers: &stillTimers{}}, []transport.Conn{w0, w1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Stop()
		for _, c := range []transport.Conn{s0, w0, s1, w1} {
			c.Close()
		}
	})
	unnamed, named := w.scheds[0], w.scheds[1]
	w.step(received(named, &wire.Reserve{JobID: 9, SchedulerID: 0, VirtualSize: 1, RemTasks: 1}, nil))
	if named.hello.Role != wire.RoleScheduler || named.hello.ID != 0 || w.schedByID[0] != named {
		t.Fatalf("the Reserve did not name its connection: hello %+v", named.hello)
	}
	var offer *wire.Offer
	for offer == nil {
		m, err := s1.Recv()
		if err != nil {
			t.Fatal(err)
		}
		offer, _ = m.(*wire.Offer)
	}
	reply := func(p *peer) {
		w.step(received(p, &wire.Assign{JobID: 9, Seq: offer.Seq, Duration: 50}, nil))
	}
	reply(unnamed)
	if w.core.OffersOut() != 1 || w.freeSlots != 1 {
		t.Fatalf("a reply on an unnamed connection resolved the offer: %d offers out, %d slots free", w.core.OffersOut(), w.freeSlots)
	}
	reply(named)
	if w.core.OffersOut() != 0 || w.freeSlots != 0 {
		t.Fatalf("the reply on the named connection did not place: %d offers out, %d slots free", w.core.OffersOut(), w.freeSlots)
	}
}
