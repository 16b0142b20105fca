package transport

// Tests of the flush's life: it runs only while the outbox holds frames,
// an idle connection has no goroutine on its write side, and Close waits
// only for a flush that is armed or running.

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

// connGoroutines counts the goroutines inside a connection's methods: a
// flush running or waiting, or a writer of any other kind.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("transport.(*tcpConn).")) {
			n++
		}
	}
	return n
}

// settled waits until no goroutine runs on a connection and every end
// of conns is idle, reporting false if that takes longer than two
// seconds.
func settled(conns ...*tcpConn) bool {
	idle := func() bool {
		for _, c := range conns {
			c.mu.Lock()
			busy := c.flushing || c.out != nil
			c.mu.Unlock()
			if busy {
				return false
			}
		}
		return connGoroutines() == 0
	}
	for end := time.Now().Add(2 * time.Second); !idle(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// lifecyclePair is a loopback connection whose ends flush after delay.
func lifecyclePair(t *testing.T, delay time.Duration) (*tcpConn, *tcpConn) {
	dialed, accepted := tcpPipe(t)
	a := newConn(dialed, delay, defaultOutboxLimit)
	b := newConn(accepted, delay, defaultOutboxLimit)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestFlushLifecycle pins who runs on a connection's write side and
// when. CI runs it under -race twenty times: the interleavings of Send,
// the flush and Close are what it checks.
func TestFlushLifecycle(t *testing.T) {
	t.Run("an idle connection runs no flush", func(t *testing.T) {
		const pairs = 16
		var ends []*tcpConn
		for i := 0; i < pairs; i++ {
			a, b := lifecyclePair(t, DefaultFlushDelay)
			ends = append(ends, a, b)
			for k := 0; k < 3; k++ {
				if err := a.Send(&wire.Kill{Seq: uint64(k)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Send(&wire.Kill{Seq: 9}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < pairs; i++ {
			a, b := ends[2*i], ends[2*i+1]
			for k := 0; k < 3; k++ {
				if _, err := b.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if !settled(ends...) {
			t.Fatalf("%d goroutines still run on the connections after every frame was received", connGoroutines())
		}
		// And a flush starts again on the next frame.
		if err := ends[0].Send(&wire.Kill{Seq: 10}); err != nil {
			t.Fatal(err)
		}
		if m, err := ends[1].Recv(); err != nil || m.(*wire.Kill).Seq != 10 {
			t.Fatalf("the frame after an idle spell: %#v, %v", m, err)
		}
	})

	t.Run("Close on an idle connection does not wait", func(t *testing.T) {
		a, b := lifecyclePair(t, time.Hour)
		start := time.Now()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > closeDrainTimeout/4 {
			t.Fatalf("closing an idle connection took %v", took)
		}
		if _, err := b.Recv(); err == nil {
			t.Fatal("the peer read a frame nobody sent")
		}
	})

	t.Run("Close runs an armed flush at once", func(t *testing.T) {
		a, b := lifecyclePair(t, time.Hour)
		for k := 0; k < 5; k++ {
			if err := a.Send(&wire.Kill{Seq: uint64(k)}); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > closeDrainTimeout/4 {
			t.Fatalf("Close took %v to drain an armed flush", took)
		}
		for k := 0; k < 5; k++ {
			m, err := b.Recv()
			if err != nil || m.(*wire.Kill).Seq != uint64(k) {
				t.Fatalf("frame %d after Close: %#v, %v", k, m, err)
			}
		}
		if _, err := b.Recv(); err == nil {
			t.Fatal("Recv succeeded past the drained close")
		}
	})

	t.Run("a Send racing Close delivers or reports ErrClosed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for round := 0; round < 20; round++ {
			delay := []time.Duration{0, 50 * time.Microsecond, DefaultFlushDelay}[round%3]
			a, b := lifecyclePair(t, delay)
			sent := make(chan int, 1)
			go func() {
				n := 0
				for ; ; n++ {
					if err := a.Send(&wire.Kill{Seq: uint64(n)}); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("send %d: %v, want ErrClosed", n, err)
						}
						break
					}
				}
				sent <- n
			}()
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			closed := make(chan struct{})
			go func() { a.Close(); close(closed) }()
			var got int
			for ; ; got++ {
				m, err := b.Recv()
				if err != nil {
					break
				}
				if seq := m.(*wire.Kill).Seq; seq != uint64(got) {
					t.Fatalf("round %d: frame %d arrived as %d", round, got, seq)
				}
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: Close hung", round)
			}
			var n int
			select {
			case n = <-sent:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a Send hung across Close", round)
			}
			if got != n {
				t.Fatalf("round %d: %d Sends returned nil, the peer read %d frames", round, n, got)
			}
			if !settled(a, b) {
				t.Fatalf("round %d: a flush outlived Close", round)
			}
		}
	})
}
