// Package transport carries wire.Messages between live cluster nodes
// over TCP. There is one Conn implementation: deployed schedulers,
// workers and clients get it from Listen, Dial and Accept, and tests and
// the benchmark from Pair, which builds a loopback connection the same
// way — so every live connection runs the same outbox, writer, reader
// and close-drain. The package is the TCP transport alone: the chaos
// suite injects its faults in internal/live's virtual connections, which
// never touch a socket.
//
// Sends are batched through an async write loop: Send encodes
// the frame into a bounded per-connection outbox and returns; a writer
// goroutine drains the outbox, coalescing every queued frame into a
// single Write per wakeup. Frames are length-prefixed and therefore
// self-delimiting, so batching changes nothing on the wire — only how
// many syscalls carry it. The contract preserved by the batched path:
//
//   - Ordering: frames leave in Send order (single writer, FIFO outbox).
//   - Backpressure: a full outbox blocks Send until the writer drains
//     (counted in BatchTotals().OutboxStalls).
//   - Flush deadline: no frame sits in the outbox longer than the
//     connection's flush delay (default DefaultFlushDelay) once the
//     writer wakes — trickle traffic is not held hostage to batch size.
//   - Drain-on-Close: Close flushes every queued frame before tearing
//     the connection down (bounded by closeDrainTimeout), so final
//     Hello/JobComplete/TaskDone frames are not dropped.
//   - Errors: sends on a locally closed connection fail with ErrClosed;
//     a transport-level write failure is sticky and surfaces on every
//     subsequent Send wrapped so errors.Is(err, ErrClosed) matches.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

// Conn is an ordered, reliable message stream. Send and Recv are safe to
// call from different goroutines; Send is additionally safe for
// concurrent callers.
//
// Who owns a message: Send is done with m when it returns — it has
// encoded what it needs, so the caller may overwrite m at
// once, and the live nodes send every frame out of one scratch value.
// What Recv returns is the caller's until it chooses to hand it to
// wire.Release, which lets a later Recv reuse the struct; not releasing
// costs an allocation, never correctness. A wrapper that holds a
// message past its own Send's return (a delayed delivery) must copy it.
type Conn interface {
	// Send transmits one message.
	Send(m wire.Message) error
	// Recv blocks for the next message.
	Recv() (wire.Message, error)
	// Close tears the connection down; pending Recv calls fail. Queued
	// frames are flushed first (drain-on-close), bounded by
	// closeDrainTimeout if the peer stops reading.
	Close() error
	// RemoteAddr describes the peer for logs.
	RemoteAddr() string
}

// ErrClosed is returned by operations on a closed connection. Sends on a
// connection that is closed locally or by the peer report it: match with
// errors.Is(err, ErrClosed), since a peer close wraps the underlying
// write error (EPIPE, ECONNRESET, ...) rather than discarding it.
var ErrClosed = errors.New("transport: connection closed")

// closedErr wraps a transport-level failure so callers can match it with
// errors.Is(err, ErrClosed) while logs keep the root cause.
type closedErr struct{ cause error }

func (e *closedErr) Error() string   { return "transport: connection closed: " + e.cause.Error() }
func (e *closedErr) Unwrap() error   { return e.cause }
func (e *closedErr) Is(t error) bool { return t == ErrClosed }

// DefaultFlushDelay is the batching writer's flush deadline: after a
// wakeup the writer lingers this long so a burst (probe fan-out, offer
// replies) accumulates into one Write, and no frame ever waits longer
// than this in the outbox. ~500µs trades invisible per-hop latency
// (scheduling decisions are ~ms-scale) for an order-of-magnitude fewer
// syscalls under load.
const DefaultFlushDelay = 500 * time.Microsecond

// defaultOutboxLimit bounds the encoded bytes queued in a TCP outbox
// before Send blocks (backpressure). One frame may overshoot the limit:
// the bound is checked before appending, so a sender never deadlocks on
// a frame larger than the limit.
const defaultOutboxLimit = 256 << 10

// outboxFirst sizes an outbox buffer the free list has to make: a
// flush carries one or two 20–60-byte frames under trickle traffic and a
// few dozen in a probe fan-out, so one kilobyte takes a flush without
// growing.
const outboxFirst = 1 << 10

// maxPooledOutbox caps the buffer the free list keeps. A buffer grows
// past it only when a connection queued a backlog (backpressure, or a
// SubmitJob with long replica lists); pooling it would pin that backlog's
// memory on whichever connection draws it next, so it is dropped after
// its Write.
const maxPooledOutbox = 16 << 10

// outboxFree is the process-wide free list of outbox buffers. A
// connection takes a buffer when its first frame after an idle spell is
// queued and its writer hands it back once the Write has returned, so
// an idle connection holds none and the list holds about as many
// buffers as there are connections with frames in flight at once. It is
// a plain list, not a sync.Pool, so a GC does not empty it: a warm
// cluster's new connections and idle ones waking up allocate nothing to
// send.
var outboxFree struct {
	mu   sync.Mutex
	bufs [][]byte
}

// takeOutbox returns an empty buffer from the free list, or a new one.
func takeOutbox() []byte {
	outboxFree.mu.Lock()
	defer outboxFree.mu.Unlock()
	n := len(outboxFree.bufs)
	if n == 0 {
		return make([]byte, 0, outboxFirst)
	}
	b := outboxFree.bufs[n-1]
	outboxFree.bufs[n-1] = nil
	outboxFree.bufs = outboxFree.bufs[:n-1]
	return b
}

// putOutbox hands a written buffer back to the free list; one that grew
// past maxPooledOutbox is dropped instead. The caller must hold no other
// reference to b.
func putOutbox(b []byte) {
	if cap(b) > maxPooledOutbox {
		return
	}
	outboxFree.mu.Lock()
	outboxFree.bufs = append(outboxFree.bufs, b[:0])
	outboxFree.mu.Unlock()
}

// recvBuffer sizes a connection's read buffer. Protocol frames are 20–60
// bytes and arrive in the peer's flush batches of a few dozen, so 4 KB
// takes a batch in one read; a cluster holds two connection ends per
// worker per scheduler, so this is the per-connection memory that
// multiplies (40 MB per scheduler at 10,000 workers; a 64 KB buffer
// would be 640 MB). A frame larger than the buffer is read straight
// into its destination.
const recvBuffer = 4 << 10

// closeDrainTimeout bounds how long Close waits for the writer to flush
// the outbox. A healthy peer drains in microseconds; a wedged one (not
// reading, kernel buffer full) would otherwise block Close forever.
const closeDrainTimeout = 2 * time.Second

// BatchCounters is a process-wide snapshot of batching activity across
// every connection. Monotonic; loadgen
// prints them so batching efficacy is observable in every run.
type BatchCounters struct {
	// OutboxFlushes counts writer wakeups that wrote at least one frame
	// (one Write syscall each on TCP).
	OutboxFlushes uint64
	// FramesFlushed counts frames carried by those flushes;
	// FramesFlushed/OutboxFlushes is the mean batch size.
	FramesFlushed uint64
	// OutboxStalls counts Send calls that blocked on a full outbox.
	OutboxStalls uint64
}

var (
	batchFlushes atomic.Uint64
	batchFrames  atomic.Uint64
	batchStalls  atomic.Uint64
)

// BatchTotals returns the process-wide batching counters.
func BatchTotals() BatchCounters {
	return BatchCounters{
		OutboxFlushes: batchFlushes.Load(),
		FramesFlushed: batchFrames.Load(),
		OutboxStalls:  batchStalls.Load(),
	}
}

// tcpConn frames wire messages over a TCP stream with an async batching
// writer: Send encodes into the outbox under mu; writeLoop takes the
// outbox, issues one Write for everything queued and hands the buffer
// back to the free list.
//
// Who owns an outbox buffer: the connection from the Send that takes it
// off the free list (the first frame queued into an empty outbox) until
// writeLoop takes it out of out; the writer from then until its Write
// returns, when it goes back on the free list (or is dropped, if it grew
// past maxPooledOutbox). Nothing else ever holds one.
type tcpConn struct {
	c  net.Conn
	rd *wire.Reader // over a recvBuffer-sized bufio.Reader on c

	mu      sync.Mutex
	notFull sync.Cond // senders wait here when the outbox is full
	out     []byte    // pending encoded frames; nil when none (guarded by mu)
	frames  int       // frame count in out (guarded by mu)
	closing bool      // Close has begun; no new sends (guarded by mu)
	werr    error     // sticky write error (guarded by mu)

	flushDelay time.Duration
	limit      int

	wake    chan struct{} // cap 1: "outbox non-empty or closing"
	drained chan struct{} // closed when writeLoop exits
}

// newConn wraps an established net.Conn in the batched transport, with
// the given flush deadline (<= 0 flushes on every writer wakeup with no
// linger) and outbox byte limit. TCP connections get Nagle disabled
// (SetNoDelay), which pairs deliberately with app-level coalescing: Nagle would hold a lone small frame waiting
// for the delayed ACK of the previous one (~40ms stalls on the
// offer/reply round trip), while the batching writer coalesces on its
// own ~500µs flush deadline — so the kernel sends every flush
// immediately and the application decides the batch boundary. Disabling
// Nagle *without* app-level coalescing (the PR 3 state) paid one syscall
// and one packet per frame; batching keeps the latency floor and drops
// the per-frame cost. Applied here so dialed and accepted connections
// both get it.
func newConn(c net.Conn, flushDelay time.Duration, limit int) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	t := &tcpConn{
		c:          c,
		rd:         wire.NewReader(bufio.NewReaderSize(c, recvBuffer)),
		flushDelay: flushDelay,
		limit:      limit,
		wake:       make(chan struct{}, 1),
		drained:    make(chan struct{}),
	}
	t.notFull.L = &t.mu
	go t.writeLoop()
	return t
}

// Dial connects to a node's TCP address.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newConn(c, DefaultFlushDelay, defaultOutboxLimit), nil
}

func (t *tcpConn) Send(m wire.Message) error {
	t.mu.Lock()
	for {
		if t.closing {
			t.mu.Unlock()
			return ErrClosed
		}
		if t.werr != nil {
			err := t.werr
			t.mu.Unlock()
			return &closedErr{cause: err}
		}
		if len(t.out) < t.limit {
			break
		}
		batchStalls.Add(1)
		t.notFull.Wait()
	}
	// Encode straight into the outbox: a fresh frame per message would,
	// at probe rates, dominate the send path's allocation profile (see
	// BenchmarkConnThroughput's allocs/msg column). The outbox doubles as
	// the encode buffer and comes off the free list, so a send allocates
	// nothing unless the free list is empty or a flush outgrows the
	// buffer it drew (BenchmarkConnFanout).
	if t.out == nil {
		t.out = takeOutbox()
	}
	t.out = wire.Append(t.out, m)
	t.frames++
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop is the connection's single writer: it waits for a wakeup,
// lingers up to flushDelay so a burst accumulates, then takes the
// outbox, writes everything in one call and hands the buffer back.
// Every queued frame is therefore written at most flushDelay (plus one
// write) after its Send returned — the flush-deadline contract.
func (t *tcpConn) writeLoop() {
	defer close(t.drained)
	for {
		<-t.wake
		if t.flushDelay > 0 {
			t.mu.Lock()
			closing := t.closing
			t.mu.Unlock()
			if !closing {
				time.Sleep(t.flushDelay)
			}
		}
		for {
			t.mu.Lock()
			if len(t.out) == 0 {
				closing := t.closing
				t.mu.Unlock()
				if closing {
					return
				}
				break // outbox empty: back to waiting
			}
			buf, n := t.out, t.frames
			t.out, t.frames = nil, 0
			t.mu.Unlock()
			t.notFull.Broadcast()
			_, err := t.c.Write(buf)
			putOutbox(buf)
			if err != nil {
				// No write deadlines are ever set on these connections, so
				// a write error means the stream is dead (peer closed,
				// reset, ...): record it sticky so every subsequent Send
				// reports ErrClosed, and stop writing.
				t.mu.Lock()
				t.werr = err
				t.mu.Unlock()
				t.notFull.Broadcast()
				return
			}
			batchFlushes.Add(1)
			batchFrames.Add(uint64(n))
		}
	}
}

// Recv returns the next message. A frame-local decode failure (unknown
// type, malformed payload) comes back as a *wire.DecodeError (match it
// with errors.As): the frame was fully consumed and the stream is
// still in sync, so the caller may log it and keep receiving instead of
// killing a connection that carries every in-flight negotiation. The
// live node loops do that for unknown-type frames (version skew);
// malformed frames of known types they treat as connection failures,
// because the peer may have committed protocol state in them.
func (t *tcpConn) Recv() (wire.Message, error) {
	return t.rd.Read()
}

// Close drains the outbox (the writer flushes every queued frame before
// exiting), then closes the socket. If the writer cannot drain within
// closeDrainTimeout — the peer stopped reading — the socket is closed
// anyway, which errors the in-flight Write and unwedges the writer.
func (t *tcpConn) Close() error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return t.c.Close()
	}
	t.closing = true
	t.mu.Unlock()
	t.notFull.Broadcast()
	select {
	case t.wake <- struct{}{}:
	default:
	}
	select {
	case <-t.drained:
	case <-time.After(closeDrainTimeout):
	}
	return t.c.Close()
}

func (t *tcpConn) RemoteAddr() string { return t.c.RemoteAddr().String() }

// Listener accepts transport connections.
type Listener struct {
	l net.Listener
}

// Listen binds a TCP listener; addr ":0" picks a free port.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Accept waits for the next connection.
func (ln *Listener) Accept() (Conn, error) {
	c, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return newConn(c, DefaultFlushDelay, defaultOutboxLimit), nil
}

// Addr returns the bound address (useful with ":0").
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// Close stops accepting.
func (ln *Listener) Close() error { return ln.l.Close() }

// Pair returns the two ends of a loopback TCP connection, built by
// Listen, Dial and Accept like any deployed link, so a test runs the
// same outbox, writer and reader a cluster does. The listener is closed
// before Pair returns. buffer is ignored: every connection has the same
// outbox bound. Pair panics if loopback is unavailable — its callers are
// tests and the benchmark, which have no use for a pair that failed.
func Pair(buffer int) (Conn, Conn) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	// Dial completes against the listen backlog, so Accept can follow it
	// on the same goroutine.
	a, err := Dial(ln.Addr())
	if err != nil {
		panic(err)
	}
	b, err := ln.Accept()
	if err != nil {
		panic(err)
	}
	return a, b
}
