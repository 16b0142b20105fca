package transport

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

// countingConn wraps a net.Conn and counts Write calls — the syscall
// proxy the batching claims are measured against.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// tcpPipe returns a connected loopback socket pair (raw net.Conns).
func tcpPipe(tb testing.TB) (net.Conn, net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	return dialed, accepted
}

// countedPair returns a loopback connection whose sending end counts its
// Write calls, closed when the test ends.
func countedPair(tb testing.TB) (sender, receiver Conn, counting *countingConn) {
	dialed, accepted := tcpPipe(tb)
	if tc, ok := dialed.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // the counting wrapper hides *net.TCPConn from newConn
	}
	counting = &countingConn{Conn: dialed}
	sender = newConn(counting, DefaultFlushDelay, defaultOutboxLimit)
	receiver = newConn(accepted, DefaultFlushDelay, defaultOutboxLimit)
	tb.Cleanup(func() { sender.Close(); receiver.Close() })
	return sender, receiver, counting
}

// TestDrainOnCloseDeliversQueuedFrames pins the drain-on-close contract:
// every frame accepted by Send before Close is receivable by the peer,
// then the close surfaces. Worker drains depend on this — the final
// TaskDone/JobComplete frames ride the closing connection.
func TestDrainOnCloseDeliversQueuedFrames(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t)
		const n = 100
		for i := 0; i < n; i++ {
			if err := a.Send(&wire.Ping{Nonce: uint64(i)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for i := 0; i < n; i++ {
			m, err := b.Recv()
			if err != nil {
				t.Fatalf("frame %d lost on close: %v", i, err)
			}
			if p, ok := m.(*wire.Ping); !ok || p.Nonce != uint64(i) {
				t.Fatalf("frame %d corrupted or reordered: %#v", i, m)
			}
		}
		if _, err := b.Recv(); err == nil {
			t.Fatal("Recv succeeded past the drained close")
		}
	})
}

// TestSendAfterLocalCloseTCP pins the typed error on the batched TCP
// path: a send on a locally closed connection fails with ErrClosed.
func TestSendAfterLocalCloseTCP(t *testing.T) {
	a, _ := pair(t)
	a.Close()
	if err := a.Send(&wire.Ping{Nonce: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after local close = %v, want errors.Is(err, ErrClosed)", err)
	}
}

// TestBatchedWriteCoalescing pins the syscall win: a burst of frames
// enqueued faster than the flush deadline coalesces into a small number
// of Write calls. The acceptance bar is ≥5x fewer writes than frames at
// burst sizes ≥8; this asserts a 64-frame burst lands in at most 12
// writes (≥5.3x) — in practice the writer needs 1-2.
func TestBatchedWriteCoalescing(t *testing.T) {
	sender, receiver, counting := countedPair(t)
	const burst = 64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < burst; i++ {
			if _, err := receiver.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < burst; i++ {
		if err := sender.Send(&wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("recv: %v", err)
	}
	if w := counting.writes.Load(); w > burst/5 {
		t.Fatalf("burst of %d frames took %d Write calls, want ≤ %d (≥5x coalescing)",
			burst, w, burst/5)
	}
}

// TestFlushDeadlineTrickle pins the flush-deadline contract: under
// trickle load (one lone frame at a time, no successor to coalesce
// with) a frame never sits in the outbox waiting for a batch — the
// writer flushes it within the flush delay. Median delivery latency
// must be a small multiple of the 500µs deadline; the median is used so
// scheduler hiccups on loaded CI machines don't fail the run.
func TestFlushDeadlineTrickle(t *testing.T) {
	a, b := pair(t)
	const probes = 50
	lat := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		if err := a.Send(&wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
		got := make(chan error, 1)
		go func() { _, err := b.Recv(); got <- err }()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("trickle frame %d not delivered: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("trickle frame %d not delivered within 5s", i)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(2 * time.Millisecond) // next frame is a fresh wakeup
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[probes/2]; med > 20*DefaultFlushDelay {
		t.Fatalf("median trickle latency %v, want ≤ %v (frames must flush on the deadline, not on batch size)",
			med, 20*DefaultFlushDelay)
	}
}

// TestOutboxBackpressureStalls pins the bounded-outbox contract: a
// sender outpacing the writer blocks (rather than growing the queue or
// erroring), every frame still arrives in order, and the stall is
// counted in the process-wide batching counters.
func TestOutboxBackpressureStalls(t *testing.T) {
	dialed, accepted := tcpPipe(t)
	// A tiny outbox and a long flush delay force the sender to hit the
	// limit while the writer lingers.
	sender := newConn(dialed, 20*time.Millisecond, 64)
	receiver := newConn(accepted, DefaultFlushDelay, defaultOutboxLimit)
	defer sender.Close()
	defer receiver.Close()

	before := BatchTotals().OutboxStalls
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := sender.Send(&wire.Ping{Nonce: uint64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := receiver.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if p, ok := m.(*wire.Ping); !ok || p.Nonce != uint64(i) {
			t.Fatalf("frame %d out of order: %#v", i, m)
		}
	}
	wg.Wait()
	if got := BatchTotals().OutboxStalls; got <= before {
		t.Fatalf("OutboxStalls did not move (%d -> %d); the bounded outbox never applied backpressure", before, got)
	}
}

// TestBatchTotalsAdvance pins the batching counters' wiring: traffic on
// a batched connection moves OutboxFlushes and FramesFlushed, and the
// mean batch size is at least one frame per flush.
func TestBatchTotalsAdvance(t *testing.T) {
	before := BatchTotals()
	a, b := pair(t)
	const n = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	// The writer counts a flush after its Write returns, so the last
	// frame can be received before its flush is counted: wait for it.
	after := BatchTotals()
	for end := time.Now().Add(2 * time.Second); after.FramesFlushed-before.FramesFlushed < n && time.Now().Before(end); after = BatchTotals() {
		time.Sleep(time.Millisecond)
	}
	if after.OutboxFlushes <= before.OutboxFlushes {
		t.Fatal("OutboxFlushes did not advance")
	}
	if got := after.FramesFlushed - before.FramesFlushed; got < n {
		t.Fatalf("FramesFlushed advanced by %d, want ≥ %d", got, n)
	}
}
