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
// Pending events are stored by value in one binary min-heap ordered by
// (time, scheduling order): no per-event allocation on the hot path, no
// interface boxing, O(log n) push and pop. That pair is the whole
// ordering contract — events fire in nondecreasing time, and events at the
// same instant fire in the order they were scheduled — and it is a total
// order, so the firing sequence does not depend on the container.
//
// At and After return a *Event cancellation handle (the only per-event
// allocation); Post, PostAfter, PostArg and PostAfterArg skip the handle
// entirely for the common fire-and-forget case. Handles are deliberately
// not pooled: callers may retain one indefinitely and Cancel it after the
// event fired, and recycling would let that stale Cancel hit an unrelated
// event.
package simulator

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Event is a cancellation handle for a scheduled callback. The zero Event
// is invalid; events are created through Engine.At / Engine.After.
type Event struct {
	at       Time
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

// Time returns the virtual time at which the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// slot is one scheduled callback, stored by value inside the queue's
// backing array. h is non-nil only for cancellable events (At/After).
// Exactly one of fn/afn is set: afn carries the PostArg form, where the
// callback is a shared (usually package-level) function and the
// per-event state travels in arg — the zero-allocation path for
// adapters that post pooled message objects instead of closures.
type slot struct {
	at  Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
	h   *Event
}

// slotLess orders slots by (time, scheduling order) — the engine's FIFO
// tie-break contract.
func slotLess(a, b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slotHeap is a hand-rolled binary min-heap of slots ordered by (at, seq).
// Avoiding container/heap keeps slots out of interface boxes and saves an
// allocation plus two indirect calls per operation.
type slotHeap []slot

func (h *slotHeap) push(s slot) {
	*h = append(*h, s)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !slotLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *slotHeap) pop() slot {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = slot{} // release fn/h for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && slotLess(q[l], q[small]) {
			small = l
		}
		if r < n && slotLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: simulations are single-goroutine by design so that runs
// are reproducible. Run concurrent simulations on separate Engines.
type Engine struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// queue holds every pending event, including canceled ones that have
	// not yet been popped (matching Pending's documented semantics).
	queue slotHeap

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
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past — or at NaN, which would
// make the queue's ordering inconsistent — panics: that is always a logic
// error in a discrete-event model. +Inf is legal and orders after every
// finite time.
func (e *Engine) At(t Time, fn func()) *Event {
	if !(t >= e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t}
	e.insert(slot{at: t, fn: fn, h: ev})
	return ev
}

// After schedules fn to run d seconds from now. Negative or NaN d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn at absolute virtual time t with no cancellation
// handle. It is the zero-allocation path for fire-and-forget events —
// the overwhelmingly common case — and otherwise behaves exactly like At.
func (e *Engine) Post(t Time, fn func()) {
	if !(t >= e.now) { // also rejects NaN
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	e.insert(slot{at: t, fn: fn})
}

// PostAfter schedules fn to run d seconds from now with no cancellation
// handle. Negative or NaN d panics.
func (e *Engine) PostAfter(d Time, fn func()) {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	e.insert(slot{at: e.now + d, fn: fn})
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
	e.insert(slot{at: t, afn: fn, arg: arg})
}

// PostAfterArg schedules fn(arg) d seconds from now with no cancellation
// handle. Negative or NaN d panics.
func (e *Engine) PostAfterArg(d Time, fn func(any), arg any) {
	if !(d >= 0) { // also rejects NaN
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	e.insert(slot{at: e.now + d, afn: fn, arg: arg})
}

func (e *Engine) insert(s slot) {
	s.seq = e.seq
	e.seq++
	e.queue.push(s)
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
	for !e.stopped && len(e.queue) > 0 {
		if deadline >= 0 && e.queue[0].at > deadline {
			e.now = deadline
			return e.now
		}
		s := e.queue.pop()
		if s.h != nil && s.h.canceled {
			continue
		}
		e.now = s.at
		e.Fired++
		if s.afn != nil {
			s.afn(s.arg)
		} else {
			s.fn()
		}
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Drain discards all pending events without running them. Useful when a
// simulation has logically completed but periodic timers remain. The
// queue's backing array keeps its capacity but is scrubbed, so a drained
// engine retains no references to event callbacks, payloads, or
// cancellation handles.
func (e *Engine) Drain() {
	clear(e.queue)
	e.queue = e.queue[:0]
}
