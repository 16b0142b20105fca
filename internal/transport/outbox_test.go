package transport

// Tests of who owns an outbox buffer: the flush hands it back to the
// process-wide free list after its Write, a buffer grown past the cap is
// dropped, and a warm free list serves fresh connections.

import (
	"runtime"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

// onFreeList reports whether the buffer whose first byte is at p is on
// the outbox free list.
func onFreeList(p *byte) bool {
	outboxFree.mu.Lock()
	defer outboxFree.mu.Unlock()
	for _, b := range outboxFree.bufs {
		if &b[:1][0] == p {
			return true
		}
	}
	return false
}

// queued returns the first byte of c's outbox, which must hold a frame.
func queued(t *testing.T, c *tcpConn) *byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.out) == 0 {
		t.Fatal("the outbox was flushed before the test could see it")
	}
	return &c.out[0]
}

// slowPair is a loopback connection whose sending end lingers 50 ms
// before each flush, so a test can look at a frame while it is queued.
func slowPair(t *testing.T) (*tcpConn, Conn) {
	dialed, accepted := tcpPipe(t)
	a := newConn(dialed, 50*time.Millisecond, defaultOutboxLimit)
	b := newConn(accepted, DefaultFlushDelay, defaultOutboxLimit)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestIdleConnHoldsNoOutbox: once its frames are written, a connection
// holds no outbox buffer; the flush has put it back on the free list.
func TestIdleConnHoldsNoOutbox(t *testing.T) {
	a, b := slowPair(t)
	if err := a.Send(&wire.Kill{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	buf := queued(t, a)
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(2 * time.Second); !onFreeList(buf); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the written outbox buffer never reached the free list")
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.out != nil {
		t.Fatalf("an idle connection holds a %d-byte outbox", cap(a.out))
	}
}

// TestOversizedOutboxIsNotPooled: a buffer that grew past
// maxPooledOutbox (here under one large frame) is dropped after its
// Write, not kept for the next connection to draw.
func TestOversizedOutboxIsNotPooled(t *testing.T) {
	a, b := slowPair(t)
	groups := make([][]uint32, maxPooledOutbox/4)
	for i := range groups {
		groups[i] = []uint32{uint32(i)}
	}
	big := &wire.SubmitJob{JobID: 1, Phases: []wire.PhaseSpec{{NumTasks: uint32(len(groups)), Replicas: groups}}}
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	buf := queued(t, a)
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	a.Close() // returns once no flush is armed or running, its buffer settled
	if onFreeList(buf) {
		t.Fatalf("a buffer past the %d-byte cap was pooled", maxPooledOutbox)
	}

	n := func() int {
		outboxFree.mu.Lock()
		defer outboxFree.mu.Unlock()
		return len(outboxFree.bufs)
	}
	before := n()
	putOutbox(make([]byte, 0, maxPooledOutbox+1))
	if n() != before {
		t.Fatal("putOutbox kept a buffer past the cap")
	}
	putOutbox(make([]byte, 7, maxPooledOutbox))
	if n() != before+1 || len(takeOutbox()) != 0 {
		t.Fatal("putOutbox did not keep a buffer at the cap, emptied")
	}
}

// TestWarmFreeListServesFreshConns: once the free list holds a buffer
// for each, the first frames of 64 fresh connections allocate nothing
// on the send side. The count is the sending goroutine's alone: with
// one P it runs the 64 Sends before any flush they arm, since each flush
// runs on a goroutine its connection's timer starts, and what starting
// it costs is not the send's.
func TestWarmFreeListServesFreshConns(t *testing.T) {
	const conns = 64
	senders := make([]Conn, conns)
	receivers := make([]Conn, conns)
	for i := range senders {
		senders[i], receivers[i] = pair(t)
	}
	for i := 0; i < conns; i++ {
		putOutbox(make([]byte, 0, outboxFirst))
	}
	msg := &wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range senders {
		if err := s.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, r := range receivers {
		if _, err := r.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("the first frames of %d fresh connections allocated %d objects, want 0", conns, n)
	}
}
