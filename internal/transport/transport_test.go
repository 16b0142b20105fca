package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

func testConnPair(t *testing.T, kind string) (Conn, Conn, func()) {
	t.Helper()
	switch kind {
	case "mem":
		a, b := Pair(16)
		return a, b, func() { a.Close(); b.Close() }
	case "tcp":
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var server Conn
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := ln.Accept()
			if err == nil {
				server = c
			}
		}()
		client, err := Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if server == nil {
			t.Fatal("accept failed")
		}
		return client, server, func() { client.Close(); server.Close(); ln.Close() }
	}
	panic("unknown kind")
}

func TestSendRecvBothTransports(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()

			msgs := []wire.Message{
				&wire.Hello{Role: wire.RoleWorker, ID: 3, Slots: 16},
				&wire.Reserve{JobID: 9, SchedulerID: 1, VirtualSize: 12.5, RemTasks: 8},
				&wire.Ping{Nonce: 77},
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
}

func TestBidirectional(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()
			if err := a.Send(&wire.Ping{Nonce: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
			if err := b.Send(&wire.Pong{Nonce: 1}); err != nil {
				t.Fatal(err)
			}
			m, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.(*wire.Pong).Nonce != 1 {
				t.Fatal("nonce mismatch")
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()

			const senders, per = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := a.Send(&wire.Ping{Nonce: uint64(s*1000 + i)}); err != nil {
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
}

func TestCloseUnblocksRecv(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()
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
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b := Pair(1)
	b.Close()
	a.Close()
	if err := a.Send(&wire.Ping{Nonce: 1}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestSendAfterPeerCloseReturnsErrClosed pins the two transports to the
// same failure type: a send on a connection the peer has closed fails
// with an error matching ErrClosed via errors.Is. TCP surfaces the break
// asynchronously (early sends may land in the kernel buffer before the
// RST returns), so the test sends until the failure appears.
func TestSendAfterPeerCloseReturnsErrClosed(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()
			b.Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				err := a.Send(&wire.Ping{Nonce: 1})
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
}

func TestMemPairSelfChecksCodec(t *testing.T) {
	a, b := Pair(4)
	defer a.Close()
	defer b.Close()
	// A message that encodes fine must arrive decoded and equal.
	m := &wire.Refuse{JobID: 5, NoDemand: true, HasUnsat: true, UnsatJobID: 7, UnsatVS: 3.5}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*wire.Refuse)
	if r.UnsatJobID != 7 || !r.NoDemand {
		t.Fatalf("round trip mismatch: %+v", r)
	}
}

// TestRecvSurvivesUndecodableFrame pins the recoverable-error contract:
// a frame with an unknown type tag comes back as a wire.IsRecoverable
// error (not a dead stream), and the next Recv on the same connection
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

	// An unknown-type frame followed by a valid Ping, written as raw
	// bytes (a version-skewed or buggy peer).
	garbage := []byte{0, 0, 0, 3, 0xEE, 1, 2, 3}
	valid := wire.Append(nil, &wire.Ping{Nonce: 42})
	if _, err := raw.Write(append(garbage, valid...)); err != nil {
		t.Fatal(err)
	}

	_, err = server.Recv()
	if err == nil || !wire.IsRecoverable(err) {
		t.Fatalf("undecodable frame error = %v, want recoverable", err)
	}
	m, err := server.Recv()
	if err != nil {
		t.Fatalf("stream dead after recoverable frame: %v", err)
	}
	if p, ok := m.(*wire.Ping); !ok || p.Nonce != 42 {
		t.Fatalf("next frame corrupted: %#v", m)
	}
}

// TestPeerCloseUnblocksRecv pins the in-memory pair to TCP semantics on
// the receive side: a peer's Close delivers buffered frames first, then
// fails the blocked Recv — the disconnect-unwind paths of live nodes
// depend on observing the break without a frame in flight.
func TestPeerCloseUnblocksRecv(t *testing.T) {
	a, b := Pair(4)
	if err := a.Send(&wire.Ping{Nonce: 9}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("buffered frame lost on peer close: %v", err)
	}
	if p, ok := m.(*wire.Ping); !ok || p.Nonce != 9 {
		t.Fatalf("wrong frame: %#v", m)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("Recv after peer close = %v, want ErrClosed", err)
	}
	// And a Recv already blocked when the peer closes must wake too.
	c, d := Pair(1)
	done := make(chan error, 1)
	go func() {
		_, err := d.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("blocked Recv woke with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Recv never observed the peer close")
	}
}

// TestLoopbackFrameAllocatesNothing pins a small frame's whole trip over
// a real socket — encode into the outbox, batched write, buffered read,
// decode into a recycled struct, release — at zero allocations once the
// connection's buffers have reached their steady-state size.
func TestLoopbackFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of Puts under -race, so the wire free list misses by design")
	}
	a, b, cleanup := testConnPair(t, "tcp")
	defer cleanup()
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
