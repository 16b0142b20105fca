package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

// pair returns the two ends of a loopback connection, closed when the
// test ends. Tests that once ran over several transports keep their "tcp"
// subtest: Pair is a TCP socket.
func pair(tb testing.TB) (Conn, Conn) {
	a, b := Pair(0)
	tb.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestSendRecvBothTransports(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t)
		msgs := []wire.Message{
			&wire.Hello{Role: wire.RoleWorker, ID: 3, Slots: 16},
			&wire.Reserve{JobID: 9, SchedulerID: 1, VirtualSize: 12.5, RemTasks: 8},
			&wire.Kill{Seq: 77},
		}
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		for _, want := range msgs {
			got, err := b.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if got.Type() != want.Type() {
				t.Fatalf("type %v, want %v", got.Type(), want.Type())
			}
		}
	})
}

func TestBidirectional(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t)
		if err := a.Send(&wire.Kill{Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(&wire.Kill{Seq: 1}); err != nil {
			t.Fatal(err)
		}
		m, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.(*wire.Kill).Seq != 1 {
			t.Fatal("seq mismatch")
		}
	})
}

func TestConcurrentSenders(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t)
		const senders, per = 8, 50
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := a.Send(&wire.Kill{Seq: uint64(s*1000 + i)}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(s)
		}
		got := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			for got < senders*per {
				if _, err := b.Recv(); err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				got++
			}
		}()
		wg.Wait()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d", got, senders*per)
		}
	})
}

func TestCloseUnblocksRecv(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t)
		errc := make(chan error, 1)
		go func() {
			_, err := b.Recv()
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond)
		a.Close()
		b.Close()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("Recv returned nil after close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv did not unblock on close")
		}
	})
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b := pair(t)
	b.Close()
	a.Close()
	if err := a.Send(&wire.Kill{Seq: 1}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestSendAfterPeerCloseReturnsErrClosed pins the failure type of a send
// on a connection the peer has closed: an error matching ErrClosed via
// errors.Is. TCP surfaces the break asynchronously (early sends may land
// in the kernel buffer before the RST returns), so the test sends until
// the failure appears.
func TestSendAfterPeerCloseReturnsErrClosed(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t)
		b.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := a.Send(&wire.Kill{Seq: 1})
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("send after peer close = %v, want errors.Is(err, ErrClosed)", err)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("sends kept succeeding after peer close")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestRecvSurvivesUndecodableFrame pins the recoverable-error contract:
// a frame with an unknown type tag comes back as a *wire.DecodeError
// (not a dead stream), and the next Recv on the same connection
// delivers the following frame intact.
func TestRecvSurvivesUndecodableFrame(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	server := <-accepted
	defer server.Close()

	// An unknown-type frame followed by a valid Kill, written as raw
	// bytes (a version-skewed or buggy peer).
	garbage := []byte{0, 0, 0, 3, 0xEE, 1, 2, 3}
	valid := wire.Append(nil, &wire.Kill{Seq: 42})
	if _, err := raw.Write(append(garbage, valid...)); err != nil {
		t.Fatal(err)
	}

	_, err = server.Recv()
	if !errors.As(err, new(*wire.DecodeError)) {
		t.Fatalf("undecodable frame error = %v, want recoverable", err)
	}
	m, err := server.Recv()
	if err != nil {
		t.Fatalf("stream dead after recoverable frame: %v", err)
	}
	if p, ok := m.(*wire.Kill); !ok || p.Seq != 42 {
		t.Fatalf("next frame corrupted: %#v", m)
	}
}

// TestPeerCloseUnblocksRecv pins the receive side of a peer's Close:
// buffered frames arrive first (data, then FIN), then Recv fails — the
// disconnect-unwind paths of live nodes depend on observing the break
// without a frame in flight.
func TestPeerCloseUnblocksRecv(t *testing.T) {
	a, b := pair(t)
	if err := a.Send(&wire.Kill{Seq: 9}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("buffered frame lost on peer close: %v", err)
	}
	if p, ok := m.(*wire.Kill); !ok || p.Seq != 9 {
		t.Fatalf("wrong frame: %#v", m)
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("Recv after peer close succeeded")
	}
	// And a Recv already blocked when the peer closes must wake too.
	c, d := pair(t)
	done := make(chan error, 1)
	go func() {
		_, err := d.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("blocked Recv woke without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Recv never observed the peer close")
	}
}

// TestLoopbackFrameAllocatesNothing pins a small frame's whole trip over
// a real socket — encode into an outbox buffer from the free list,
// batched write, buffered read, decode into a recycled struct, release —
// at zero allocations once the outbox and wire free lists are warm.
func TestLoopbackFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of Puts under -race, so the wire free list misses by design")
	}
	a, b := pair(t)
	msg := &wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	cycle := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		wire.Release(m)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a loopback frame allocates %.0f objects in steady state, want 0", allocs)
	}
}
