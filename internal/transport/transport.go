// Package transport carries wire.Messages between live cluster nodes
// over TCP. There is one Conn implementation: deployed schedulers,
// workers and clients get it from Listen, Dial and Accept, and tests and
// the benchmark from Pair, which builds a loopback connection the same
// way — so every live connection runs the same outbox, flush, reader
// and close-drain. The package is the TCP transport alone: the chaos
// suite injects its faults in internal/live's virtual connections, which
// never touch a socket.
//
// Sends are batched: Send encodes the frame into a bounded
// per-connection outbox and returns; the first frame queued into an
// empty outbox arms the connection's flush, which runs a flush delay
// later on a goroutine of its own, writes everything queued in one Write
// per pass, and ends once the outbox is empty. An idle connection is
// therefore its socket, its reader and a disarmed timer: no goroutine
// waits on its write side, and its read side holds one small buffer
// (wire.Reader). Frames are length-prefixed and therefore
// self-delimiting, so batching changes nothing on the wire — only how
// many syscalls carry it. The contract preserved by the batched path:
//
//   - Ordering: frames leave in Send order (at most one flush at a time,
//     FIFO outbox).
//   - Backpressure: a full outbox blocks Send until the flush takes it
//     (counted in BatchTotals().OutboxStalls).
//   - Flush deadline: no frame sits in the outbox longer than the
//     connection's flush delay (default DefaultFlushDelay), plus the
//     Write before it — trickle traffic is not held hostage to batch
//     size.
//   - Drain-on-Close: Close flushes every queued frame before tearing
//     the connection down (bounded by closeDrainTimeout), so final
//     Hello/JobComplete/TaskDone frames are not dropped.
//   - Errors: sends on a locally closed connection fail with ErrClosed;
//     a transport-level write failure is sticky and surfaces on every
//     subsequent Send wrapped so errors.Is(err, ErrClosed) matches.
package transport

import (
	"errors"
	"fmt"
	"math"
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

// DefaultFlushDelay is the flush deadline: the flush starts this long
// after the first frame queued into an empty outbox, so a burst (probe
// fan-out, offer replies) accumulates into one Write, and no frame ever
// waits longer than this in the outbox. ~500µs trades invisible per-hop
// latency (scheduling decisions are ~ms-scale) for an order-of-magnitude
// fewer syscalls under load.
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
// queued and its flush hands it back once the Write has returned, so
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

// closeDrainTimeout bounds how long Close waits for the flush to drain
// the outbox: it is the write deadline Close sets. A healthy peer drains
// in microseconds; a wedged one (not reading, kernel buffer full) would
// otherwise block Close forever.
const closeDrainTimeout = 2 * time.Second

// endOfTime is the delay a connection's flush timer is built with, so
// that it never fires before the first frame re-arms it. The timer is
// not built stopped: a runtime timer still in the runtime's timer heap
// is re-armed in place, while arming one that has left the heap appends
// to it, which allocates whenever more connections than ever before arm
// at once; so a fresh connection's first frame allocates nothing
// (TestWarmFreeListServesFreshConns).
const endOfTime = time.Duration(math.MaxInt64)

// BatchCounters is a process-wide snapshot of batching activity across
// every connection. Monotonic; loadgen
// prints them so batching efficacy is observable in every run.
type BatchCounters struct {
	// OutboxFlushes counts Writes that carried at least one frame (one
	// Write syscall each on TCP).
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

// tcpConn frames wire messages over a TCP stream with a batching flush:
// Send encodes into the outbox under mu, and the first frame into an
// empty outbox arms timer; flush takes the outbox, issues one Write for
// everything queued, hands the buffer back to the free list, and goes
// again until the outbox is empty.
//
// Who owns an outbox buffer: the connection from the Send that takes it
// off the free list (the first frame queued into an empty outbox) until
// flush takes it out of out; the flush from then until its Write
// returns, when it goes back on the free list (or is dropped, if it grew
// past maxPooledOutbox). Nothing else ever holds one.
type tcpConn struct {
	c  net.Conn
	rd *wire.Reader // reads c through its own buffer

	mu       sync.Mutex
	cond     sync.Cond // senders wait here for room in the outbox, Close for the flush to end
	out      []byte    // pending encoded frames; nil when none (guarded by mu)
	frames   int       // frame count in out (guarded by mu)
	flushing bool      // a flush is armed or running (guarded by mu)
	closing  bool      // Close has begun; no new sends (guarded by mu)
	werr     error     // sticky write error (guarded by mu)

	flushDelay time.Duration
	limit      int
	timer      *time.Timer // runs flush; armed by the first frame into an empty outbox
}

// newConn wraps an established net.Conn in the batched transport, with
// the given flush deadline (<= 0 flushes as soon as a frame is queued,
// with no linger) and outbox byte limit. TCP connections get Nagle
// disabled (SetNoDelay), which pairs deliberately with app-level coalescing: Nagle would hold a lone small frame waiting
// for the delayed ACK of the previous one (~40ms stalls on the
// offer/reply round trip), while the batching flush coalesces on its
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
		rd:         wire.NewReader(c),
		flushDelay: flushDelay,
		limit:      limit,
	}
	t.cond.L = &t.mu
	t.timer = time.AfterFunc(endOfTime, t.flush)
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
		t.cond.Wait()
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
	if !t.flushing {
		t.flushing = true
		t.timer.Reset(t.flushDelay)
	}
	t.mu.Unlock()
	return nil
}

// flush writes the outbox until it is empty: it takes everything queued,
// writes it in one call, hands the buffer back, and goes again while
// Sends queued more meanwhile; then it ends. The timer runs it, on a
// goroutine of its own, flushDelay after the first frame queued into an
// empty outbox, so a burst accumulates into one Write and every frame is
// written at most flushDelay (plus the write before it) after its Send
// returned — the flush-deadline contract. Close runs it itself when it
// disarms a pending flush. flushing is true from the arm until flush
// ends, so at most one flush runs at a time.
func (t *tcpConn) flush() {
	t.mu.Lock()
	for len(t.out) > 0 {
		buf, n := t.out, t.frames
		t.out, t.frames = nil, 0
		t.mu.Unlock()
		t.cond.Broadcast()
		_, err := t.c.Write(buf)
		putOutbox(buf)
		t.mu.Lock()
		if err != nil {
			// The only write deadline is Close's, so a write error means
			// the stream is dead (peer closed, reset, a peer that stopped
			// reading while we close): record it sticky so every
			// subsequent Send reports ErrClosed, and stop writing.
			t.werr = err
			break
		}
		batchFlushes.Add(1)
		batchFrames.Add(uint64(n))
	}
	t.flushing = false
	t.mu.Unlock()
	t.cond.Broadcast()
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

// Close drains the outbox, then closes the socket. It waits only when a
// flush is armed or running: an armed one it runs at once itself, a
// running one it waits out. The drain is bounded by closeDrainTimeout,
// set as the socket's write deadline, so a Write to a peer that stopped
// reading fails then instead of blocking Close forever.
func (t *tcpConn) Close() error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return t.c.Close()
	}
	t.closing = true
	disarmed := t.timer.Stop()
	if t.flushing {
		_ = t.c.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
		if disarmed {
			t.mu.Unlock()
			t.flush()
			t.mu.Lock()
		}
		for t.flushing {
			t.cond.Wait()
		}
	}
	t.mu.Unlock()
	t.cond.Broadcast()
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
// same outbox, flush and reader a cluster does. The listener is closed
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
