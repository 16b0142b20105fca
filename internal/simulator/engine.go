// Package simulator provides a deterministic discrete-event simulation
// engine. All experiments in this repository run on top of it: the engine
// owns virtual time, the event queue, and the random source, so a run with
// a fixed seed is bit-for-bit reproducible.
//
// The engine is deliberately minimal: events are plain callbacks scheduled
// at absolute or relative virtual times. Ties in time are broken by
// scheduling order (FIFO), which keeps multi-component simulations
// deterministic without requiring components to avoid simultaneous events.
//
// # Event queue
//
// Pending events are split in two. A binary min-heap holds pointer-free
// keys ordered by (time, scheduling order); each key names a slab entry
// holding the callback, its argument and the cancellation handle, and
// freed entries go on a free list for the next post. Sifts move 24-byte
// keys the garbage collector never scans, and nothing is allocated per
// event once the slab has grown to the run's peak. (time, scheduling
// order) is the whole ordering contract — events fire in nondecreasing
// time, and events at the same instant fire in the order they were
// scheduled — and it is a total order, so the firing sequence does not
// depend on the container.
//
// That is what lets a Lane sit beside the heap: a FIFO for a stream
// posted at now plus a constant delay, which therefore arrives sorted.
// A lane appends in O(1) what the heap would sift, RunUntil fires the
// smallest of the heap top and the lane heads, and a post earlier than
// its lane's tail goes to the heap, so lanes never change the firing
// order. The heap stays the one ordered store for everything else.
//
// At and After return a fresh *Event cancellation handle, the one
// allocation a post can cost; AtArg takes a handle the caller owns, which
// is how an executor embeds a copy's finish event in the copy itself.
// Post, PostAfter, PostArg and PostAfterArg skip the handle entirely for
// the common fire-and-forget case. Handles are deliberately not pooled
// by the engine: callers may retain one indefinitely and Cancel it after
// the event fired, and recycling would let that stale Cancel hit an
// unrelated event.
package simulator

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Event is a cancellation handle for a scheduled callback. At and After
// allocate one per event; AtArg arms one the caller owns.
type Event struct {
	canceled bool
}

// Cancel marks the event so it will not fire. Canceling an already-fired
// or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// key is one pending event's place in the heap: its (at, seq) order and
// the slab index of its payload. It holds no pointer, so the heap's
// backing array is never scanned by the garbage collector and a sift
// moves three words with no write barrier.
type key struct {
	at  Time
	seq uint64
	idx uint32
}

// less orders keys by (time, scheduling order) — the engine's FIFO
// tie-break contract.
func (k key) less(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// entry is one pending event's payload, stored in the slab at its key's
// idx. h is non-nil only for cancellable events (At/After/AtArg).
// Exactly one of fn/afn is set: afn carries the PostArg form, where the
// callback is a shared (usually package-level) function and the
// per-event state travels in arg — the zero-allocation path for
// adapters that post pooled message objects instead of closures.
type entry struct {
	fn  func()
	afn func(any)
	arg any
	h   *Event
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: simulations are single-goroutine by design so that runs
// are reproducible. Run concurrent simulations on separate Engines.
type Engine struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// keys is the heap of every pending event, including canceled ones
	// that have not yet been popped (matching Pending's documented
	// semantics). slab holds their payloads; free lists the slab indices
	// no pending event uses.
	keys []key
	slab []entry
	free []uint32

	// lanes are the FIFO queues beside the heap (NewLane); RunUntil
	// fires whichever of the heap top and the lane heads is earliest.
	lanes []*Lane

	// Fired counts events that have executed; useful for tests and for
	// sanity-checking runaway simulations.
	Fired uint64
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of events waiting to fire (including
// canceled events that have not yet been drained).
func (e *Engine) Pending() int {
	n := len(e.keys)
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}

// At schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past — or at NaN, which would
// make the queue's ordering inconsistent — panics: that is always a logic
// error in a discrete-event model. +Inf is legal and orders after every
// finite time.
func (e *Engine) At(t Time, fn func()) *Event {
	if !(t >= e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{}
	e.insert(t, entry{fn: fn, h: ev})
	return ev
}

// After schedules fn to run d seconds from now. Negative or NaN d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t under the caller's
// handle ev, which it clears; ev.Cancel stops the event. It is At without
// the allocations: fn is a function bound once and arg the per-event
// state, and the handle lives wherever the caller keeps it (an Executor
// embeds it in the copy it ends). ev must not be armed for an event still
// pending — clearing it would revive a cancel. Time rules are At's.
func (e *Engine) AtArg(ev *Event, t Time, fn func(any), arg any) {
	if !(t >= e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	ev.canceled = false
	e.insert(t, entry{afn: fn, arg: arg, h: ev})
}

// Post schedules fn at absolute virtual time t with no cancellation
// handle. It is the zero-allocation path for fire-and-forget events —
// the overwhelmingly common case — and otherwise behaves exactly like At.
func (e *Engine) Post(t Time, fn func()) {
	if !(t >= e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	e.insert(t, entry{fn: fn})
}

// PostAfter schedules fn to run d seconds from now with no cancellation
// handle. Negative or NaN d panics.
func (e *Engine) PostAfter(d Time, fn func()) {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	e.insert(e.now+d, entry{fn: fn})
}

// PostArg schedules fn(arg) at absolute virtual time t with no
// cancellation handle. It is the fully allocation-free post: fn is
// typically one shared package-level dispatch function and arg a pooled
// message object, so — unlike Post with a capturing closure — nothing is
// heap-allocated per event. Ordering is identical to Post (FIFO among
// same-time events by scheduling order).
func (e *Engine) PostArg(t Time, fn func(any), arg any) {
	if !(t >= e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	e.insert(t, entry{afn: fn, arg: arg})
}

// PostAfterArg schedules fn(arg) d seconds from now with no cancellation
// handle. Negative or NaN d panics.
func (e *Engine) PostAfterArg(d Time, fn func(any), arg any) {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	e.insert(e.now+d, entry{afn: fn, arg: arg})
}

// insert stores p in a free slab entry and pushes its key, sifting the
// hole up from the new leaf and writing the key once where it lands.
func (e *Engine) insert(at Time, p entry) {
	var idx uint32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[idx] = p
	} else {
		idx = uint32(len(e.slab))
		e.slab = append(e.slab, p)
	}
	k := key{at: at, seq: e.seq, idx: idx}
	e.seq++
	q := append(e.keys, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	e.keys = q
}

// pop removes the heap's earliest event and returns its payload. The
// last key fills the root's hole, which sifts down past every smaller
// child; the payload's slab entry is zeroed and freed, so a fired or
// skipped event pins nothing.
func (e *Engine) pop() entry {
	q := e.keys
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.keys = q
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].less(q[c]) {
				c = r
			}
			if !q[c].less(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	p := e.slab[top.idx]
	e.slab[top.idx] = entry{}
	e.free = append(e.free, top.idx)
	return p
}

// Stop halts Run after the currently executing event returns. If no run
// is in progress — Stop called between runs, or by the final event's
// callback after the queue emptied — the stop is retained and the next
// Run/RunUntil call returns before firing any event. Each Run/RunUntil
// consumes at most one stop: the run it halts (or the armed run that
// returns immediately) clears the flag, so the run after that proceeds
// normally.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until no events remain or Stop is
// called. It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(-1)
}

// RunUntil executes events in time order until the next event would fire
// strictly after deadline, no events remain, or Stop is called. A negative
// deadline means "no deadline". Time advances to the deadline if it is
// beyond the last event fired. A Stop that arrived while no run was in
// progress makes RunUntil return before firing any event (see Stop); the
// pending stop is consumed either way.
func (e *Engine) RunUntil(deadline Time) Time {
	defer func() { e.stopped = false }()
	for !e.stopped {
		// The next event is the (at, seq) minimum of the heap top and the
		// lane heads; from names the lane holding it, nil for the heap.
		var next key
		var from *Lane
		ok := len(e.keys) > 0
		if ok {
			next = e.keys[0]
		}
		for _, l := range e.lanes {
			if l.n == 0 {
				continue
			}
			if h := l.ring[l.head].k; !ok || h.less(next) {
				next, from, ok = h, l, true
			}
		}
		if !ok {
			break
		}
		if deadline >= 0 && next.at > deadline {
			e.now = deadline
			return e.now
		}
		var p entry
		if from != nil {
			p = from.pop()
		} else if p = e.pop(); p.h != nil && p.h.canceled {
			continue
		}
		e.now = next.at
		e.Fired++
		if p.afn != nil {
			p.afn(p.arg)
		} else {
			p.fn()
		}
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Drain discards all pending events without running them. Useful when a
// simulation has logically completed but periodic timers remain. The
// keys, the slab and the free list keep their capacity, but the slab is
// scrubbed, so a drained engine retains no references to event
// callbacks, payloads, or cancellation handles.
func (e *Engine) Drain() {
	e.keys = e.keys[:0]
	clear(e.slab)
	e.slab = e.slab[:0]
	e.free = e.free[:0]
	for _, l := range e.lanes {
		clear(l.ring)
		l.head, l.n = 0, 0
	}
}

// Lane is a FIFO of pending events beside the engine's heap, for a
// stream whose posts arrive already in time order — a message hop or a
// timer of constant delay, posted at now plus that delay. Its events
// draw scheduling order from the engine like every other post, and
// RunUntil fires the earliest of the heap top and every lane head, so a
// lane changes what an event costs, never when it fires. A post earlier
// than the lane's tail goes to the heap instead, which keeps each lane
// sorted whatever its caller posts. Lane events have no cancellation
// handle.
type Lane struct {
	e *Engine
	// ring holds the lane's events from head on, n of them, wrapping;
	// its length is a power of two and doubles when full.
	ring []laneEvent
	head int
	n    int
}

// laneEvent is one pending lane event: its (at, seq) order, and its
// payload inline rather than in the slab (the key's idx is unused).
type laneEvent struct {
	k key
	p entry
}

// NewLane returns an empty lane merged into this engine's firing order.
func (e *Engine) NewLane() *Lane {
	l := &Lane{e: e}
	e.lanes = append(e.lanes, l)
	return l
}

// PostArg schedules fn(arg) at absolute virtual time t with no
// cancellation handle. Time rules are Engine.PostArg's.
func (l *Lane) PostArg(t Time, fn func(any), arg any) {
	if !(t >= l.e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, l.e.now))
	}
	l.post(t, entry{afn: fn, arg: arg})
}

// PostAfter schedules fn to run d seconds from now with no cancellation
// handle. Negative or NaN d panics.
func (l *Lane) PostAfter(d Time, fn func()) {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	l.post(l.e.now+d, entry{fn: fn})
}

// post appends p at the lane's tail, or hands it to the heap when it is
// due before the tail's event.
func (l *Lane) post(at Time, p entry) {
	mask := len(l.ring) - 1
	if l.n > 0 && at < l.ring[(l.head+l.n-1)&mask].k.at {
		l.e.insert(at, p)
		return
	}
	if l.n == len(l.ring) {
		l.grow()
		mask = len(l.ring) - 1
	}
	e := l.e
	l.ring[(l.head+l.n)&mask] = laneEvent{k: key{at: at, seq: e.seq}, p: p}
	e.seq++
	l.n++
}

// grow doubles the ring, unwrapping its events to the front.
func (l *Lane) grow() {
	ring := make([]laneEvent, max(2*len(l.ring), 1))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// pop removes the lane's head and returns its payload, zeroing the ring
// slot so a fired event pins nothing.
func (l *Lane) pop() entry {
	ev := &l.ring[l.head]
	p := ev.p
	*ev = laneEvent{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return p
}
