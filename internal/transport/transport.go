// Package transport carries wire.Messages between live cluster nodes.
// Two implementations share one contract: a TCP transport for running
// schedulers, workers, and clients as real networked processes, and an
// in-memory pair for tests — identical semantics, so protocol logic is
// tested without sockets and deployed with them.
//
// Both transports batch sends through an async write loop: Send encodes
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
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
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
// encoded (or copied) what it needs, so the caller may overwrite m at
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
	// SetRecvDeadline bounds subsequent Recv calls: past the deadline
	// they fail with an error matching os.ErrDeadlineExceeded. The zero
	// time clears the deadline. A deadline expiring mid-frame leaves the
	// stream position undefined — use it for give-up-and-close waits,
	// not for polling.
	SetRecvDeadline(t time.Time) error
	// Close tears the connection down; pending Recv calls fail. Queued
	// frames are flushed first (drain-on-close), bounded by
	// closeDrainTimeout if the peer stops reading.
	Close() error
	// RemoteAddr describes the peer for logs.
	RemoteAddr() string
}

// ErrClosed is returned by operations on a closed connection. Both
// transports report it for sends on a connection that is closed locally
// or by the peer: match with errors.Is(err, ErrClosed), since the TCP
// side wraps the underlying write error (EPIPE, ECONNRESET, ...) rather
// than discarding it.
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
// every batched connection (TCP and in-memory). Monotonic; loadgen
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

// --- TCP ----------------------------------------------------------------

// tcpConn frames wire messages over a TCP stream with an async batching
// writer: Send encodes into the outbox under mu; writeLoop swaps the
// outbox against a spare buffer and issues one Write for everything
// queued.
type tcpConn struct {
	c  net.Conn
	rd *wire.Reader // over a recvBuffer-sized bufio.Reader on c

	mu      sync.Mutex
	notFull sync.Cond // senders wait here when the outbox is full
	out     []byte    // pending encoded frames (guarded by mu)
	frames  int       // frame count in out (guarded by mu)
	closing bool      // Close has begun; no new sends (guarded by mu)
	werr    error     // sticky write error (guarded by mu)

	flushDelay time.Duration
	limit      int

	wake    chan struct{} // cap 1: "outbox non-empty or closing"
	drained chan struct{} // closed when writeLoop exits
}

// NewConn wraps an established net.Conn in the batched transport. TCP
// connections get Nagle disabled (SetNoDelay), which pairs deliberately
// with app-level coalescing: Nagle would hold a lone small frame waiting
// for the delayed ACK of the previous one (~40ms stalls on the
// offer/reply round trip), while the batching writer coalesces on its
// own ~500µs flush deadline — so the kernel sends every flush
// immediately and the application decides the batch boundary. Disabling
// Nagle *without* app-level coalescing (the PR 3 state) paid one syscall
// and one packet per frame; batching keeps the latency floor and drops
// the per-frame cost. Applied here so dialed and accepted connections
// both get it.
func NewConn(c net.Conn) Conn {
	return NewConnFlush(c, DefaultFlushDelay, defaultOutboxLimit)
}

// NewConnFlush is NewConn with an explicit flush deadline and outbox
// byte limit. flushDelay <= 0 flushes on every writer wakeup with no
// linger; limit <= 0 uses the default.
func NewConnFlush(c net.Conn, flushDelay time.Duration, limit int) Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if limit <= 0 {
		limit = defaultOutboxLimit
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
	return NewConn(c), nil
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
	// Encode into the connection's reusable outbox: the old WriteMsg
	// path allocated a fresh frame per message, which at probe rates
	// dominated the send path's allocation profile (see
	// BenchmarkConnThroughput's allocs/msg column). The outbox doubles
	// as the encode buffer, so the batched path stays allocation-free
	// once the buffer reaches steady-state size.
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
// lingers up to flushDelay so a burst accumulates, then swaps the
// outbox against a spare buffer and writes everything in one call.
// Every queued frame is therefore written at most flushDelay (plus one
// write) after its Send returned — the flush-deadline contract.
func (t *tcpConn) writeLoop() {
	defer close(t.drained)
	var spare []byte
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
			t.out, t.frames = spare[:0], 0
			t.mu.Unlock()
			t.notFull.Broadcast()
			if _, err := t.c.Write(buf); err != nil {
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
			spare = buf
		}
	}
}

// Recv returns the next message. A frame-local decode failure (unknown
// type, malformed payload) comes back as an error satisfying
// wire.IsRecoverable: the frame was fully consumed and the stream is
// still in sync, so the caller may log it and keep receiving instead of
// killing a connection that carries every in-flight negotiation. The
// live node loops do that for unknown-type frames (version skew);
// malformed frames of known types they treat as connection failures,
// because the peer may have committed protocol state in them.
func (t *tcpConn) Recv() (wire.Message, error) {
	return t.rd.Read()
}

func (t *tcpConn) SetRecvDeadline(tm time.Time) error {
	return t.c.SetReadDeadline(tm)
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
	return NewConn(c), nil
}

// Addr returns the bound address (useful with ":0").
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// Close stops accepting.
func (ln *Listener) Close() error { return ln.l.Close() }

// --- in-memory ----------------------------------------------------------

// memConn is one end of an in-memory pair. Like the TCP side it batches
// through an async writer: Send runs the codec self-check — the frame is
// encoded and read back through the same wire.Reader a socket's
// receiver uses, free list included — and appends the decoded message
// to the outbox; the writer pushes queued messages
// into the delivery channel. Close drains the outbox before the close
// becomes visible to the peer, preserving TCP's data-then-FIN ordering.
// The in-memory writer has no linger (there is no syscall to amortize):
// messages become receivable as soon as the writer runs.
type memConn struct {
	name string
	out  chan<- wire.Message
	in   <-chan wire.Message

	mu       sync.Mutex
	notFull  sync.Cond // senders wait here when the outbox is full
	deadline time.Time
	outq     []wire.Message // pending decoded messages (guarded by mu)
	closing  bool           // Close has begun; no new sends (guarded by mu)
	busy     bool           // writer holds a swapped-out batch (guarded by mu)
	dead     bool           // writer exited without a clean drain (guarded by mu)
	limit    int
	enc      []byte       // the frame being self-checked (guarded by mu)
	encSrc   bytes.Reader // enc as a stream (guarded by mu)
	check    *wire.Reader // reads encSrc (guarded by mu)

	closed  chan struct{} // closed after the outbox drained: peer-visible close
	abort   chan struct{} // force-stops a writer wedged on a full channel
	wake    chan struct{} // cap 1
	drained chan struct{} // closed when writeLoop exits
	once    sync.Once
	peer    *memConn
}

// Pair returns two connected in-memory ends with the given buffer depth.
// Messages are re-encoded through the wire codec so tests exercise the
// exact bytes TCP would carry. Each direction holds up to 2×buffer
// messages in flight (delivery channel + outbox) before Send blocks.
func Pair(buffer int) (Conn, Conn) {
	if buffer < 1 {
		buffer = 1
	}
	ab := make(chan wire.Message, buffer)
	ba := make(chan wire.Message, buffer)
	a := newMemConn("mem-a", ab, ba, buffer)
	b := newMemConn("mem-b", ba, ab, buffer)
	a.peer, b.peer = b, a
	go a.writeLoop()
	go b.writeLoop()
	return a, b
}

func newMemConn(name string, out chan<- wire.Message, in <-chan wire.Message, buffer int) *memConn {
	m := &memConn{
		name:    name,
		out:     out,
		in:      in,
		limit:   buffer,
		closed:  make(chan struct{}),
		abort:   make(chan struct{}),
		wake:    make(chan struct{}, 1),
		drained: make(chan struct{}),
	}
	m.notFull.L = &m.mu
	m.check = wire.NewReader(&m.encSrc)
	return m
}

func (m *memConn) Send(msg wire.Message) error {
	// Round-trip through the codec: catches encode/decode asymmetries in
	// tests that would otherwise only surface over real sockets. The
	// encode buffer is per-connection and reusable — decoding copies
	// everything it keeps (strings, replica lists), so nothing aliases
	// the buffer once Read returns.
	m.mu.Lock()
	m.enc = wire.Append(m.enc[:0], msg)
	m.encSrc.Reset(m.enc)
	decoded, err := m.check.Read()
	if err != nil {
		m.mu.Unlock()
		return fmt.Errorf("transport: self-check failed for %s: %w", msg.Type(), err)
	}
	for {
		if m.closing || m.dead {
			m.mu.Unlock()
			return ErrClosed
		}
		// Peer fully closed (its Close drained and returned): sends can
		// never be received. Checked via the channel so the verdict is
		// deterministic once the peer's Close has returned.
		select {
		case <-m.peer.closed:
			m.mu.Unlock()
			return ErrClosed
		default:
		}
		if len(m.outq) < m.limit {
			break
		}
		batchStalls.Add(1)
		m.notFull.Wait()
	}
	m.outq = append(m.outq, decoded)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop drains the outbox into the delivery channel. It exits when
// Close has begun and the outbox is empty (clean drain), when the peer
// is fully closed (remaining frames drop, like data after an RST), or
// when Close force-aborts a wedged drain.
func (m *memConn) writeLoop() {
	defer func() {
		m.mu.Lock()
		m.dead = true
		m.mu.Unlock()
		m.notFull.Broadcast()
		close(m.drained)
	}()
	var spare []wire.Message
	for {
		select {
		case <-m.wake:
		case <-m.abort:
			return
		}
		for {
			m.mu.Lock()
			if len(m.outq) == 0 {
				closing := m.closing
				m.mu.Unlock()
				if closing {
					return
				}
				break
			}
			batch := m.outq
			m.outq = spare[:0]
			m.busy = true
			m.mu.Unlock()
			m.notFull.Broadcast()
			for i, msg := range batch {
				select {
				case m.out <- msg:
				case <-m.peer.closed:
					return
				case <-m.abort:
					return
				}
				batch[i] = nil
			}
			batchFlushes.Add(1)
			batchFrames.Add(uint64(len(batch)))
			spare = batch
			m.mu.Lock()
			m.busy = false
			m.mu.Unlock()
		}
	}
}

func (m *memConn) Recv() (wire.Message, error) {
	m.mu.Lock()
	deadline := m.deadline
	m.mu.Unlock()
	var expire <-chan time.Time
	if !deadline.IsZero() {
		left := time.Until(deadline)
		if left <= 0 {
			return nil, fmt.Errorf("transport: recv on %s: %w", m.name, os.ErrDeadlineExceeded)
		}
		timer := time.NewTimer(left)
		defer timer.Stop()
		expire = timer.C
	}
	// Already-delivered frames drain before a close is reported — the
	// same ordering TCP gives (data, then FIN/EOF). The peer's close
	// must also wake this side: node disconnect-unwind paths depend on a
	// blocked Recv observing the break, exactly as net.Conn.Read does.
	// The peer's Close only becomes visible here after its writer
	// drained its outbox into our channel, so every frame sent before
	// the close is receivable before ErrClosed.
	select {
	case msg, ok := <-m.in:
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	default:
	}
	select {
	case <-m.closed:
		return nil, ErrClosed
	case <-m.peer.closed:
		// The sender is gone; anything it sent first still delivers.
		select {
		case msg, ok := <-m.in:
			if ok {
				return msg, nil
			}
		default:
		}
		return nil, ErrClosed
	case <-expire:
		return nil, fmt.Errorf("transport: recv on %s: %w", m.name, os.ErrDeadlineExceeded)
	case msg, ok := <-m.in:
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	}
}

func (m *memConn) SetRecvDeadline(t time.Time) error {
	m.mu.Lock()
	m.deadline = t
	m.mu.Unlock()
	return nil
}

// Close drains the outbox, then makes the close visible to both ends.
// The drain is bounded: if the peer neither reads nor closes within
// closeDrainTimeout, the writer is force-aborted and remaining frames
// drop — mirroring a TCP close against a wedged peer.
func (m *memConn) Close() error {
	m.once.Do(func() {
		m.mu.Lock()
		m.closing = true
		empty := len(m.outq) == 0 && !m.busy
		m.mu.Unlock()
		m.notFull.Broadcast()
		select {
		case m.wake <- struct{}{}:
		default:
		}
		if empty {
			// Fast path: nothing to drain, so the close is visible to
			// both ends immediately — a conn torn down at rest behaves
			// exactly like the pre-batching synchronous close, which
			// loss-injection tests rely on for tight timing.
			close(m.closed)
			return
		}
		select {
		case <-m.drained:
		case <-time.After(closeDrainTimeout):
			close(m.abort)
			<-m.drained
		}
		close(m.closed)
	})
	return nil
}

func (m *memConn) RemoteAddr() string { return m.peer.name }
