// Package live runs the Hopper decentralized protocol as real networked
// processes: schedulers and workers exchanging wire messages over TCP
// (the paper's prototype is Sparrow+Thrift; ours is the same architecture
// with our own codec — see Figure 4).
//
// The live cluster demonstrates and tests the protocol end to end —
// probes, late binding, refusals, virtual-size piggybacking, straggler
// races — with real concurrency and real sockets. Task execution is
// emulated: a worker holds a slot for the task's service time (scaled by
// TimeScale), drawn scheduler-side from the same heavy-tailed model the
// simulator uses. This keeps the protocol path genuine while making a
// laptop stand in for a 200-node cluster; DESIGN.md records the
// substitution.
//
// Every node is a single-threaded event loop fed by per-connection reader
// goroutines, mirroring the determinism-friendly structure of the
// simulator implementation.
package live

import (
	"errors"
	"log"
	"sync"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// envelope is a received message tagged with its source connection.
// msg is usually a wire.Message; nodes also post internal events (plain
// structs) to their own loop through it.
type envelope struct {
	from *peer
	msg  interface{}
	err  error
}

// release ends a received frame's life: the node loops call it when the
// frame's handler has returned, and the struct goes back to the wire
// free list for a later Recv to fill. Handlers therefore copy what they
// keep (runningCopy.msg is a value, peer.hello is a value) and never
// store the pointer they were handed; one that did would read a zeroed
// message, then a stranger's frame.
func (e envelope) release() {
	if m, ok := e.msg.(wire.Message); ok {
		wire.Release(m)
	}
}

// peer is one remote node.
type peer struct {
	conn  transport.Conn
	hello wire.Hello
}

// loop owns a node's state: all message handling runs on one goroutine.
type loop struct {
	inbox chan envelope
	done  chan struct{}
	once  sync.Once

	logger *log.Logger
}

func newLoop(logger *log.Logger) *loop {
	return &loop{
		inbox:  make(chan envelope, 1024),
		done:   make(chan struct{}),
		logger: logger,
	}
}

// readFrom pumps messages from a connection into the inbox until a
// stream-level error.
//
// Unknown-type frames (a newer peer speaking messages this build does
// not know) are logged and skipped — the connection carries every
// in-flight negotiation and stays up. Only that class is safe to skip:
// a malformed frame of a KNOWN type means the peer committed protocol
// state we did not see (an Assign the scheduler already counted, an
// Offer holding a round open), so it is treated as a connection failure
// and the disconnect paths unwind the shared state.
func (l *loop) readFrom(p *peer) {
	for {
		m, err := p.conn.Recv()
		select {
		case <-l.done:
			return
		default:
		}
		if err != nil && errors.Is(err, wire.ErrUnknownType) {
			l.logf("dropping unknown-type frame from %s: %v", p.conn.RemoteAddr(), err)
			continue
		}
		select {
		case l.inbox <- envelope{from: p, msg: m, err: err}:
		case <-l.done:
			// The node stopped with a full inbox; don't wedge this
			// reader goroutine on a send no one will drain.
			return
		}
		if err != nil {
			return
		}
	}
}

// stop terminates the loop.
func (l *loop) stop() {
	l.once.Do(func() { close(l.done) })
}

// post enqueues a message (usually an internal event from a timer or
// executor goroutine) onto the loop, giving up if the node stopped.
func (l *loop) post(msg interface{}, from *peer) {
	select {
	case l.inbox <- envelope{from: from, msg: msg}:
	case <-l.done:
	}
}

func (l *loop) logf(format string, args ...interface{}) {
	if l.logger != nil {
		l.logger.Printf(format, args...)
	}
}

// send transmits and logs (not fails) on error — a dead peer is detected
// by its reader goroutine.
func (l *loop) send(p *peer, m wire.Message) {
	if err := p.conn.Send(m); err != nil {
		l.logf("send %s to %s: %v", m.Type(), p.conn.RemoteAddr(), err)
	}
}
