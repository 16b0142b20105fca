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
	"time"

	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// envelope is one inbox entry tagged with its source connection: msg is
// a received wire.Message, the error that ended the connection (see
// received), or an internal event a node posted to its own loop.
type envelope struct {
	from *peer
	msg  interface{}
}

// received is the inbox entry for what a connection's Recv returned: the
// message, or the error that ended the connection.
func received(from *peer, m wire.Message, err error) envelope {
	if err != nil {
		return envelope{from: from, msg: err}
	}
	return envelope{from: from, msg: m}
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

// loop is a node's chassis: its inbox and the one goroutine that handles
// every entry of it, its clock, and the timers that post back into the
// inbox.
type loop struct {
	inbox chan envelope
	done  chan struct{}
	once  sync.Once

	logger *log.Logger

	// timers is the node's clock, start the instant the node was built on
	// it and scale the wall seconds one virtual second takes.
	timers protocol.TimerService
	start  time.Time
	scale  float64
}

// inboxDepth is how many entries a node's inbox holds before a poster
// blocks. At 24 bytes a slot it is most of what a booted node costs:
// 4.9 MB of a 200-worker cluster's boot (heap profile over 25 boots of
// live-openloop's cluster), and since the slots hold pointers every GC
// scans them. It is not smaller because two posters must rarely block:
// a node's readers keep draining its sockets into it while its loop is
// blocked in a Send on a full outbox, and the wheel shared by a whole
// process posts every node's timer events into it from one goroutine,
// so one full inbox stalls every timer behind it. A smaller depth
// wants a measured bound on both bursts first.
const inboxDepth = 1024

// newLoop builds a node's loop on timers (nil uses protocol.WallTimers)
// at time scale scale (0 reads as 1).
func newLoop(logger *log.Logger, timers protocol.TimerService, scale float64) *loop {
	if timers == nil {
		timers = protocol.WallTimers
	}
	if scale == 0 {
		scale = 1
	}
	return &loop{
		inbox:  make(chan envelope, inboxDepth),
		done:   make(chan struct{}),
		logger: logger,
		timers: timers,
		start:  timers.Now(),
		scale:  scale,
	}
}

// now is the node's virtual clock: seconds on its timers' clock since
// start divided by the time scale, so protocol state (copy starts,
// estimators, cooldowns) lives in workload time regardless of
// compression.
func (l *loop) now() float64 {
	return l.timers.Now().Sub(l.start).Seconds() / l.scale
}

// wall is how long virtual seconds take on the node's clock.
func (l *loop) wall(virtual float64) time.Duration {
	return time.Duration(virtual * l.scale * float64(time.Second))
}

// event is what a node posts to its own loop: a closure or a timer's
// firing. It never crosses the wire.
type event interface{ run() }

// internalEvent lets other goroutines run closures on the loop goroutine.
type internalEvent struct{ fn func() }

func (e *internalEvent) run() { e.fn() }

// loopTimer is one of a node's timers: a protocol.Timer whose firing
// posts the loopTimer to the node's inbox, and the callback fn the loop
// then runs. Its owner sets fn once, when it builds the timer's record;
// arm builds t on the first arm and re-arms it after that, so a
// recurring timer allocates nothing past its first arm.
//
// Cancellation is exact: fn runs once per arm neither cancelled nor
// superseded, never for a firing that cancel or arm withdrew on its way
// to the inbox. armed says an arm is outstanding (not withdrawn, not
// run); stale counts the withdrawn firings still in flight.
type loopTimer struct {
	t     protocol.Timer
	fn    func()
	armed bool
	stale int
}

// arm arms lt to run fn after d, superseding the outstanding arm, if
// any; a superseded arm that has fired leaves a stale firing in flight.
func (l *loop) arm(lt *loopTimer, d time.Duration) {
	if lt.t == nil {
		lt.t = l.timers.AfterFunc(d, func() { l.post(lt, nil) })
	} else if !lt.t.Reset(d) && lt.armed {
		lt.stale++
	}
	lt.armed = true
}

// cancel withdraws lt's outstanding arm, if any. A fired timer cannot be
// stopped, so its firing is in flight, and counted stale.
func (l *loop) cancel(lt *loopTimer) {
	if lt.armed && !lt.t.Stop() {
		lt.stale++
	}
	lt.armed = false
}

// run is a firing of lt reaching the loop: a stale one is dropped. A
// withdrawn arm's firing was posted before any later arm's. Where
// firings race to the inbox (WallTimers runs each callback on its own
// goroutine), they are alike, so dropping by count still runs fn once,
// after the surviving arm's deadline.
func (lt *loopTimer) run() {
	if lt.stale > 0 {
		lt.stale--
		return
	}
	lt.armed = false
	lt.fn()
}

// run is a node's goroutine: it steps every inbox entry through the node
// until stop, then runs drain and returns. A harness that owns the clock
// can call the node's step itself instead, and the node behaves the same.
func (l *loop) run(step func(envelope), drain func()) {
	for {
		select {
		case <-l.done:
			drain()
			return
		case env := <-l.inbox:
			step(env)
		}
	}
}

// onLoop runs f on l's goroutine and returns its result, so a read of
// node state never races message handling; once the node has stopped it
// returns the zero value.
func onLoop[T any](l *loop, f func() T) T {
	ch := make(chan T, 1)
	l.post(&internalEvent{fn: func() { ch <- f() }}, nil)
	select {
	case v := <-ch:
		return v
	case <-l.done:
		var zero T
		return zero
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
		case l.inbox <- received(p, m, err):
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
