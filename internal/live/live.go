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
//
// The inbox is a FIFO the loop owns. A poster appends to queue under mu
// and, when the queue was empty, wakes the loop through wake's one slot;
// the loop takes the whole queue at once, swapping it for the batch it
// has just stepped, so two buffers carved at build serve every turn and
// grow only with the backlog. Only reader goroutines ever wait, for room
// for their frames (see inboxDepth); the node's own posts never do.
type loop struct {
	mu     sync.Mutex
	queue  []envelope    // posted, not yet taken
	frames int           // reader frames in queue
	closed bool          // stop ran: posts are dropped, readers released
	wake   chan struct{} // one slot: queue went from empty to not

	// room is where readers wait at the bound (its L is &mu): waiting of
	// them, owed of whom a take has kept a slot for, so that a reader
	// that never had to wait cannot starve one that did.
	room    sync.Cond
	waiting int
	owed    int

	// taken is the batch the loop is stepping, taken[next:] what is left
	// of it. Only the goroutine stepping the node touches them.
	taken []envelope
	next  int

	done chan struct{}
	once sync.Once

	logger *log.Logger

	// timers is the node's clock, start the instant the node was built on
	// it and scale the wall seconds one virtual second takes.
	timers protocol.TimerService
	start  time.Time
	scale  float64
}

// inboxDepth is how many frames a node's readers may have queued and not
// yet taken by its loop before a reader waits for the loop to take them.
// It bounds one burst only, that of the sockets: readers keep draining
// them while the loop is blocked in a Send on a full outbox, and waiting
// here pushes back on the peers through TCP. Nothing else waits for the
// loop. The node's own posts (timer firings, onLoop reads, attaches)
// are appended whatever the backlog, because the wheel a whole process
// shares posts every node's firings from its one goroutine, and one
// node's backlog must not stall every timer behind it. Memory follows
// the backlog: the two buffers carved at build hold inboxCarve entries
// each, and an inbox grows past that only to the largest batch it has
// queued.
const inboxDepth = 1024

// inboxCarve is the room each of a loop's two buffers is carved with.
const inboxCarve = 8

// errNoTimers is what building a node without a clock returns: a node
// has no clock of its own to fall back on.
var errNoTimers = errors.New("live: a node needs Timers (a protocol.TimerWheel)")

// newLoop builds a node's loop on timers, which must not be nil, at time
// scale scale (0 reads as 1).
func newLoop(logger *log.Logger, timers protocol.TimerService, scale float64) *loop {
	if scale == 0 {
		scale = 1
	}
	buf := make([]envelope, 2*inboxCarve)
	l := &loop{
		queue:  buf[:0:inboxCarve],
		taken:  buf[inboxCarve:inboxCarve],
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		logger: logger,
		timers: timers,
		start:  timers.Now(),
		scale:  scale,
	}
	l.room.L = &l.mu
	return l
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
// (post) posts the loopTimer to the node's inbox, and the callback fn
// the loop then runs. Its owner binds it once, when it builds the
// timer's record (loop.bind). On a TimerWheel the timer is wheel, which
// the record embeds; on any other clock arm builds t on the first arm
// and re-arms it after that. So arming a node timer on the wheel
// allocates nothing, its first arm included.
//
// Cancellation is exact: fn runs once per arm neither cancelled nor
// superseded, never for a firing that cancel or arm withdrew on its way
// to the inbox. armed says an arm is outstanding (not withdrawn, not
// run); stale counts the withdrawn firings still in flight.
type loopTimer struct {
	t     protocol.Timer
	wheel protocol.WheelTimer
	fn    func()
	post  func()
	armed bool
	stale int
}

// bind makes lt a timer of l's that runs fn. Its owner calls it once,
// when it builds lt's record, before the first arm.
func (l *loop) bind(lt *loopTimer, fn func()) {
	lt.fn = fn
	lt.post = func() { l.post(lt) }
	if w, ok := l.timers.(*protocol.TimerWheel); ok {
		w.Bind(&lt.wheel, lt.post)
		lt.t = &lt.wheel
	}
}

// arm arms lt to run fn after d, superseding the outstanding arm, if
// any; a superseded arm that has fired leaves a stale firing in flight.
func (l *loop) arm(lt *loopTimer, d time.Duration) {
	if lt.t == nil {
		lt.t = l.timers.AfterFunc(d, lt.post)
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
// clock posts firings in deadline order (the wheel from its one
// goroutine, an engine from its event queue), so a withdrawn arm's
// firing reaches the loop before any later arm's, and dropping the
// first stale ones by count drops exactly the withdrawn ones.
func (lt *loopTimer) run() {
	if lt.stale > 0 {
		lt.stale--
		return
	}
	lt.armed = false
	lt.fn()
}

// run is a node's goroutine: it steps every inbox entry through the node
// until stop, then runs drain and returns. It checks done before each
// entry, so a stopped node steps nothing more. A harness that owns the
// clock can take entries (pop) and call the node's step itself instead,
// and the node behaves the same.
func (l *loop) run(step func(envelope), drain func()) {
	for {
		env, ok := l.pop()
		if !ok {
			select {
			case <-l.done:
				drain()
				return
			case <-l.wake:
			}
			continue
		}
		select {
		case <-l.done:
			drain()
			return
		default:
		}
		step(env)
	}
}

// pop takes the oldest inbox entry, reporting false when none is
// queued. When the batch it steps is used up it takes the whole queue in
// one swap, handing the spent batch's buffer to the posters, and lets
// waiting readers go on. Only the goroutine stepping the node calls it.
func (l *loop) pop() (envelope, bool) {
	if l.next == len(l.taken) {
		l.mu.Lock()
		l.taken, l.queue = l.queue, l.taken[:0]
		l.frames, l.owed = 0, min(l.waiting, inboxDepth)
		waiting := l.waiting > 0
		l.mu.Unlock()
		if waiting {
			l.room.Broadcast()
		}
		l.next = 0
		if len(l.taken) == 0 {
			return envelope{}, false
		}
	}
	env := l.taken[l.next]
	l.taken[l.next] = envelope{} // the buffer outlives the entry
	l.next++
	return env, true
}

// enqueue appends env under mu, which the caller holds, and wakes the
// loop if it may be waiting for one.
func (l *loop) enqueue(env envelope) {
	if len(l.queue) == 0 {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	l.queue = append(l.queue, env)
}

// onLoop runs f on l's goroutine and returns its result, so a read of
// node state never races message handling; once the node has stopped it
// returns the zero value.
func onLoop[T any](l *loop, f func() T) T {
	ch := make(chan T, 1)
	l.post(&internalEvent{fn: func() { ch <- f() }})
	select {
	case v := <-ch:
		return v
	case <-l.done:
		var zero T
		return zero
	}
}

// readFrom pumps messages from a connection into the inbox until a
// stream-level error or until the node stops.
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
		if err != nil && errors.Is(err, wire.ErrUnknownType) {
			l.logf("dropping unknown-type frame from %s: %v", p.conn.RemoteAddr(), err)
			continue
		}
		if env := received(p, m, err); !l.deliver(env) {
			env.release()
			return
		}
		if err != nil {
			return
		}
	}
}

// deliver queues a reader's entry, first waiting while inboxDepth of the
// node's reader frames are queued and not yet taken, or owed to readers
// that waited. It reports false, queueing nothing, once the node has
// stopped; a stop releases a waiting reader.
func (l *loop) deliver(env envelope) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed && l.frames+l.owed >= inboxDepth {
		l.waiting++
		l.room.Wait()
		l.waiting--
		if l.owed > 0 {
			l.owed--
			break
		}
	}
	if l.closed {
		return false
	}
	l.frames++
	l.enqueue(env)
	return true
}

// stop terminates the loop: run returns at its next entry, posts are
// dropped from now on, and waiting readers are released.
func (l *loop) stop() {
	l.once.Do(func() {
		close(l.done)
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		l.room.Broadcast()
	})
}

// post queues one of the node's own events (a timer's firing, an onLoop
// read, an attach) from any goroutine. It never waits, whatever the
// backlog, and drops the event once the node has stopped.
func (l *loop) post(ev event) {
	l.mu.Lock()
	if !l.closed {
		l.enqueue(envelope{msg: ev})
	}
	l.mu.Unlock()
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
