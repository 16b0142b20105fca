package live

import (
	"slices"
	"testing"

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
	w, err := NewWorkerConns(WorkerConfig{ID: 3, Slots: 4}, []transport.Conn{w0, w1})
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
	for _, rc := range []*runningCopy{
		{seq: 7, sidx: 0, msg: wire.Assign{JobID: 1, TaskIndex: 2, Duration: 50}},
		{seq: 2, sidx: 0, msg: wire.Assign{JobID: 1, TaskIndex: 0, Duration: 50}},
		{seq: 5, sidx: 1, msg: wire.Assign{JobID: 2, TaskIndex: 0, Duration: 50}},
		{seq: 4, sidx: 0, msg: wire.Assign{JobID: 1, Phase: 1, TaskIndex: 0, Speculative: true, Duration: 50}},
	} {
		rc.from = w.scheds[rc.sidx]
		w.running[rc.seq] = rc
	}
	// reconnect offers slot 0 one end of a new pair and returns both.
	reconnect := func() (offered, far transport.Conn) {
		offered, far = pair()
		w.ReconnectScheduler(0, offered)
		w.step(<-w.loop.inbox) // the attach, queued before the reader started
		return offered, far
	}

	before := slices.Clone(w.scheds)
	_, far := reconnect()
	if _, err := far.Recv(); err == nil {
		t.Fatal("occupied slot: the offered connection is still open")
	}
	// Its reader ends on the closed connection; stepping that changes
	// nothing either.
	w.step(<-w.loop.inbox)
	if !slices.Equal(w.scheds, before) {
		t.Fatalf("occupied slot: scheds changed from %v to %v", before, w.scheds)
	}

	old := w.scheds[0]
	w.step(envelope{from: old, err: transport.ErrClosed})
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
		want := w.running[rc.Seq].msg
		if rc.JobID != want.JobID || rc.Phase != want.Phase || rc.TaskIndex != want.TaskIndex ||
			rc.Speculative != want.Speculative || rc.Remaining <= 0 || rc.Remaining > want.Duration {
			t.Fatalf("inventory entry %+v does not describe copy %+v", rc, want)
		}
	}
	if !slices.Equal(seqs, []uint64{2, 4, 7}) {
		t.Fatalf("re-registration reports seqs %v, want slot 0's copies in seq order [2 4 7]", seqs)
	}
	for seq, rc := range w.running {
		if want := w.scheds[rc.sidx]; rc.from != want {
			t.Fatalf("copy %d reports to %p, want its slot's connection %p", seq, rc.from, want)
		}
	}
}
