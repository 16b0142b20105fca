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
// # Fast path
//
// Events are stored by value in reusable arrays (no per-event heap
// allocation on the hot path) and dispatched through a two-level
// calendar/bucket queue:
//
//   - a calendar ring of coarse time buckets holds the dense near-future
//     events, so inserting an event is an O(1) append instead of an
//     O(log n) heap percolation;
//   - the bucket whose time has come is swapped (not copied) into the
//     consumption slot, sorted once, and consumed by advancing a cursor —
//     O(1) per pop, no per-pop sift swaps;
//   - an overflow heap catches events beyond the ring horizon.
//
// The bucket width is calibrated from the first few hundred scheduling
// deltas, which depend only on virtual times — calibration is therefore
// as deterministic as the simulation itself. Engines whose workloads never
// produce a usable width (e.g. all events at one instant) simply stay on
// the heap. At and After return a *Event cancellation handle (the only
// per-event allocation); Post and PostAfter skip the handle entirely for
// the common fire-and-forget case. Handles are deliberately not pooled:
// callers may retain one indefinitely and Cancel it after the event fired,
// and recycling would let that stale Cancel hit an unrelated event.
package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
// backing arrays. h is non-nil only for cancellable events (At/After).
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

func slotCmp(a, b slot) int {
	if slotLess(a, b) {
		return -1
	}
	return 1 // (at, seq) pairs are unique; equality cannot happen
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

const (
	// minRingBuckets/maxRingBuckets bound the calendar ring size; the
	// ring covers up to len(buckets)-1 bucket-widths of future virtual
	// time and is regrown by resize to keep the pending-event spread
	// inside the horizon (beyond it, events detour through the slower
	// overflow heap).
	minRingBuckets = 256
	maxRingBuckets = 16384
	// calibrateAfter is how many positive scheduling deltas the engine
	// observes before switching from the plain heap to the calendar.
	calibrateAfter = 256
	// bucketsPerDelta scales the initial width guess: a bucket spans
	// 1/bucketsPerDelta of the average scheduling delta.
	bucketsPerDelta = 8
	// targetOccupancy is the bucket population the width resizer aims
	// for; resizeAt is the occupancy that triggers a resize. The initial
	// width only sees scheduling deltas, not event *rate*, so dense
	// simulations are corrected here, at most maxResizes times.
	targetOccupancy = 8
	resizeAt        = 48
	// maxResizes bounds rebuild work; resizes are cheap (one ring sweep
	// each) and a generous budget keeps workloads whose density keeps
	// shifting from exhausting it and falling into oversized buckets,
	// where behind-cursor inserts cost O(bucket) instead of O(log n).
	maxResizes = 32
)

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: simulations are single-goroutine by design so that runs
// are reproducible. Run concurrent simulations on separate Engines.
type Engine struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// count is live slots across all structures, including canceled
	// events that have not yet been drained (matching Pending's
	// documented semantics).
	count int

	// Two-level queue state. near is the sorted bucket currently being
	// consumed (cursor nearPos); buckets is the calendar ring; overflow
	// holds events beyond the ring horizon — and everything, before
	// calibration or with the calendar disabled.
	near      []slot
	nearPos   int
	buckets   [][]slot
	curBucket int64 // absolute index of the bucket loaded into near
	ringCount int
	overflow  slotHeap
	width     Time
	maxAt     Time // highest time ever scheduled; sizes the ring on resize
	calOn     bool
	resizes   int
	heapOnly  bool // pins the engine to the plain heap (benchmarks/tests)
	// behindInserts counts sorted inserts into the bucket being consumed
	// (the b <= curBucket branch); tests use it to prove coverage.
	behindInserts int

	calibN   int
	calibSum Time

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
func (e *Engine) Pending() int { return e.count }

// At schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past panics: that is always a
// logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t}
	e.insert(slot{at: t, fn: fn, h: ev})
	return ev
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn at absolute virtual time t with no cancellation
// handle. It is the zero-allocation path for fire-and-forget events —
// the overwhelmingly common case — and otherwise behaves exactly like At.
func (e *Engine) Post(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	e.insert(slot{at: t, fn: fn})
}

// PostAfter schedules fn to run d seconds from now with no cancellation
// handle. Negative d panics.
func (e *Engine) PostAfter(d Time, fn func()) {
	if d < 0 {
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
	if t < e.now {
		panic(fmt.Sprintf("simulator: scheduling event at %v before now %v", t, e.now))
	}
	e.insert(slot{at: t, afn: fn, arg: arg})
}

// PostAfterArg schedules fn(arg) d seconds from now with no cancellation
// handle. Negative d panics.
func (e *Engine) PostAfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("simulator: negative delay %v", d))
	}
	e.insert(slot{at: e.now + d, afn: fn, arg: arg})
}

// bucketOf maps an absolute time onto an absolute bucket index, clamped so
// that degenerate times (huge or +Inf) cannot overflow the conversion.
func (e *Engine) bucketOf(t Time) int64 {
	q := t / e.width
	if !(q < math.MaxInt64/4) { // also catches NaN/Inf
		return math.MaxInt64 / 4
	}
	return int64(q)
}

func (e *Engine) insert(s slot) {
	s.seq = e.seq
	e.seq++
	e.count++
	at := s.at
	if at > e.maxAt {
		e.maxAt = at
	}

	if !e.calOn {
		e.overflow.push(s)
		if !e.heapOnly {
			e.calibrate(at)
		}
		return
	}

	b := e.bucketOf(at)
	switch {
	case b-e.curBucket < int64(len(e.buckets)) && b > e.curBucket:
		e.buckets[b%int64(len(e.buckets))] = append(e.buckets[b%int64(len(e.buckets))], s)
		e.ringCount++
	case b <= e.curBucket:
		// At or before the bucket being consumed (including fills behind
		// a deadline-advanced cursor): sorted-insert into the unconsumed
		// tail of near. Consumed entries are all <= now <= at, so the
		// search over the tail alone is correct.
		e.behindInserts++
		i := e.nearPos + sort.Search(len(e.near)-e.nearPos, func(k int) bool {
			return slotLess(s, e.near[e.nearPos+k])
		})
		e.near = append(e.near, slot{})
		copy(e.near[i+1:], e.near[i:])
		e.near[i] = s
	default:
		e.overflow.push(s)
	}
}

// calibrate accumulates scheduling deltas and flips the calendar on once
// enough have been seen. Purely a function of virtual times, so it is
// deterministic across runs.
func (e *Engine) calibrate(at Time) {
	if d := at - e.now; d > 0 && !math.IsInf(d, 1) {
		e.calibSum += d
		e.calibN++
	}
	if e.calibN < calibrateAfter {
		return
	}
	w := e.calibSum / calibrateAfter / bucketsPerDelta
	if w <= 0 || math.IsInf(w, 1) {
		e.calibN = 0
		e.calibSum = 0
		return
	}
	e.width = w
	e.calOn = true
	e.buckets = make([][]slot, minRingBuckets)
	e.curBucket = e.bucketOf(e.now) - 1
	// Events already queued stay in overflow; prime drains them into
	// near bucket by bucket as their time comes.
}

// prime ensures near holds the globally earliest pending events, swapping
// in calendar buckets (and draining overflow) as their time comes. It
// reports whether any event is pending.
func (e *Engine) prime() bool {
	if !e.calOn {
		return len(e.overflow) > 0
	}
	for e.nearPos >= len(e.near) {
		if e.ringCount == 0 && len(e.overflow) == 0 {
			return false
		}
		next := int64(-1)
		if e.ringCount > 0 {
			nb := int64(len(e.buckets))
			for k := int64(1); k < nb; k++ {
				if len(e.buckets[(e.curBucket+k)%nb]) > 0 {
					next = e.curBucket + k
					break
				}
			}
		}
		if len(e.overflow) > 0 {
			if b := e.bucketOf(e.overflow[0].at); next < 0 || b < next {
				next = b
			}
		}
		if next < 0 {
			return false // unreachable; defensive against count drift
		}
		e.curBucket = next
		idx := next % int64(len(e.buckets))
		b := e.buckets[idx]
		if len(b) >= resizeAt && e.resizes < maxResizes {
			e.resize(len(b))
			continue
		}
		// Copy into the reused near buffer and truncate the bucket in
		// place, so every bucket keeps its grown capacity for the next
		// ring rotation and steady-state loads allocate nothing. Scrub
		// the vacated bucket slots (and any stale near tail beyond the
		// new length) so the retained capacity holds no fn/arg/handle
		// references once the copied events fire.
		if len(b) < len(e.near) {
			clear(e.near[len(b):])
		}
		e.near = append(e.near[:0], b...)
		e.nearPos = 0
		e.ringCount -= len(b)
		clear(b)
		e.buckets[idx] = b[:0]
		for len(e.overflow) > 0 && e.bucketOf(e.overflow[0].at) <= e.curBucket {
			e.near = append(e.near, e.overflow.pop())
		}
		slices.SortFunc(e.near, slotCmp)
	}
	return true
}

// resize narrows the bucket width toward targetOccupancy events per
// bucket and rebuilds the ring through the overflow heap. The initial
// calibration only sees scheduling deltas, not concurrency, so dense
// simulations land here a handful of times early in the run.
func (e *Engine) resize(occupancy int) {
	e.resizes++
	e.width *= Time(targetOccupancy) / Time(occupancy)
	// Regrow the ring so the horizon still covers the scheduled-time
	// spread at the new width; otherwise the bulk of inserts would
	// detour through the overflow heap and its O(log n) operations.
	nb := int64(minRingBuckets)
	if span := e.maxAt - e.now; span > 0 && !math.IsInf(span, 1) {
		need := int64(span/e.width) + 2
		for nb < need && nb < maxRingBuckets {
			nb *= 2
		}
	}
	// Harvest every ring slot back into overflow first; prime re-deals
	// them at the new width. Scrub each vacated bucket so the retained
	// capacity holds no references.
	for i := range e.buckets {
		for _, s := range e.buckets[i] {
			e.overflow.push(s)
		}
		clear(e.buckets[i])
		e.buckets[i] = e.buckets[i][:0]
	}
	if nb > int64(len(e.buckets)) {
		e.buckets = make([][]slot, nb)
	}
	e.ringCount = 0
	e.curBucket = e.bucketOf(e.now) - 1
}

// nextAt returns the earliest pending event time; prime must have
// reported true.
func (e *Engine) nextAt() Time {
	if !e.calOn {
		return e.overflow[0].at
	}
	return e.near[e.nearPos].at
}

func (e *Engine) popMin() slot {
	if !e.calOn {
		return e.overflow.pop()
	}
	s := e.near[e.nearPos]
	e.near[e.nearPos] = slot{} // release fn/afn/arg/h for GC
	e.nearPos++
	return s
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
	for !e.stopped && e.prime() {
		if deadline >= 0 && e.nextAt() > deadline {
			e.now = deadline
			return e.now
		}
		s := e.popMin()
		e.count--
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
// queue's backing arrays keep their capacity but are scrubbed, so a
// drained engine retains no references to event callbacks, payloads, or
// cancellation handles.
func (e *Engine) Drain() {
	clear(e.near)
	e.near = e.near[:0]
	e.nearPos = 0
	clear(e.overflow)
	e.overflow = e.overflow[:0]
	for i := range e.buckets {
		clear(e.buckets[i])
		e.buckets[i] = e.buckets[i][:0]
	}
	e.ringCount = 0
	e.count = 0
}
