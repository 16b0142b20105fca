package simulator

import (
	"math"
	"math/rand"
	"testing"
)

// pendingEvent is the model's record of one scheduled event: when it is
// due, its position in the scheduling sequence, and whether its handle
// was canceled.
type pendingEvent struct {
	at       Time
	idx      int
	canceled bool
}

func (a pendingEvent) before(b pendingEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

// model is the oracle the workloads below check the engine against: a
// plain slice mirroring every event the engine still holds. Each firing
// must be the (at, scheduling index) minimum among the non-canceled
// entries, found by linear scan — the engine's whole ordering contract,
// stated without a heap or lanes.
type model struct {
	t       *testing.T
	e       *Engine
	pending []pendingEvent
	next    int // events scheduled so far; the next scheduling index
	fired   int
	cancels int
	spare   []*handle // AtArg handles whose events fired, for reuse
	armed   int       // events scheduled through AtArg

	// lanes are two engine lanes the workloads also post through;
	// appended and fellBack count lane posts the lane kept and the ones
	// it handed to the heap for being earlier than its tail.
	lanes    [2]*Lane
	appended int
	fellBack int
	// deadline, when not negative, is the running slice's RunUntil
	// deadline, which no firing may pass.
	deadline Time
}

func newModel(t *testing.T) *model {
	e := New(1)
	return &model{t: t, e: e, lanes: [2]*Lane{e.NewLane(), e.NewLane()}, deadline: -1}
}

// handle is a caller-owned cancellation handle for AtArg events. The
// model recycles one once its event has fired, as an owner reusing its
// own record would, after canceling it late: AtArg must clear that stale
// cancel or the handle's next event never fires.
type handle struct {
	ev  Event
	idx int
	fn  func()
}

func (m *model) record(at Time) int {
	idx := m.next
	m.next++
	m.pending = append(m.pending, pendingEvent{at: at, idx: idx})
	return idx
}

// after schedules through Engine.After (closure + cancellation handle).
func (m *model) after(d Time, fn func()) (*Event, int) {
	idx := m.record(m.e.Now() + d)
	return m.e.After(d, func() {
		m.fire(idx)
		fn()
	}), idx
}

// atArg schedules fn through Engine.AtArg under a recycled handle.
func (m *model) atArg(at Time, fn func()) *handle {
	var h *handle
	if n := len(m.spare); n > 0 {
		h = m.spare[n-1]
		m.spare = m.spare[:n-1]
	} else {
		h = new(handle)
	}
	h.idx, h.fn = m.record(at), fn
	m.armed++
	m.e.AtArg(&h.ev, at, m.fireHandle, h)
	return h
}

func (m *model) fireHandle(a any) {
	h := a.(*handle)
	m.fire(h.idx)
	fn := h.fn
	h.ev.Cancel() // after the event fired: a no-op
	m.spare = append(m.spare, h)
	fn()
}

// post schedules through Engine.Post (closure, no handle).
func (m *model) post(at Time) {
	idx := m.record(at)
	m.e.Post(at, func() { m.fire(idx) })
}

func (m *model) fireArg(a any) { m.fire(a.(int)) }

// laneArg schedules through Lane.PostArg (shared callback + payload).
func (m *model) laneArg(l *Lane, at Time) {
	n := l.n
	l.PostArg(at, m.fireArg, m.record(at))
	m.countLane(l, n)
}

// laneAfter schedules fn through Lane.PostAfter.
func (m *model) laneAfter(l *Lane, d Time, fn func()) {
	n := l.n
	idx := m.record(m.e.Now() + d)
	l.PostAfter(d, func() {
		m.fire(idx)
		fn()
	})
	m.countLane(l, n)
}

// countLane counts whether the post that found n events in l was
// appended to it or handed to the heap.
func (m *model) countLane(l *Lane, n int) {
	if l.n > n {
		m.appended++
	} else {
		m.fellBack++
	}
}

func (m *model) cancel(ev *Event, idx int) {
	ev.Cancel()
	for i := range m.pending {
		if m.pending[i].idx == idx {
			m.pending[i].canceled = true
			m.cancels++
			return
		}
	}
	m.t.Fatalf("canceled event %d is not pending", idx)
}

// fire checks that event idx is the one the contract says fires next,
// then retires it together with every canceled entry ordered before it
// (the engine pops and skips those on the way), so the mirror and
// Engine.Pending stay equal event by event.
func (m *model) fire(idx int) {
	m.t.Helper()
	first := -1
	for i, p := range m.pending {
		if !p.canceled && (first < 0 || p.before(m.pending[first])) {
			first = i
		}
	}
	if first < 0 {
		m.t.Fatalf("event %d fired with nothing pending", idx)
	}
	want := m.pending[first]
	if want.idx != idx {
		m.t.Fatalf("firing %d: event %d fired, want event %d (at=%v)", m.fired, idx, want.idx, want.at)
	}
	if m.e.Now() != want.at {
		m.t.Fatalf("firing %d: event %d fired at %v, scheduled for %v", m.fired, idx, m.e.Now(), want.at)
	}
	if m.deadline >= 0 && want.at > m.deadline {
		m.t.Fatalf("firing %d: event %d at %v fired in a slice ending at %v", m.fired, idx, want.at, m.deadline)
	}
	m.fired++
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.idx != idx && !(p.canceled && p.before(want)) {
			kept = append(kept, p)
		}
	}
	m.pending = kept
	if m.e.Pending() != len(m.pending) {
		m.t.Fatalf("firing %d: Pending() = %d, model holds %d", m.fired, m.e.Pending(), len(m.pending))
	}
}

// finish asserts nothing was lost: every scheduled event either fired or
// was canceled, and the engine is empty.
func (m *model) finish() {
	m.t.Helper()
	for _, p := range m.pending {
		if !p.canceled {
			m.t.Fatalf("event %d (at=%v) never fired", p.idx, p.at)
		}
	}
	if m.fired+m.cancels != m.next {
		m.t.Fatalf("fired %d + canceled %d of %d scheduled", m.fired, m.cancels, m.next)
	}
	if int(m.e.Fired) != m.fired {
		m.t.Fatalf("engine counts %d fired, model saw %d", m.e.Fired, m.fired)
	}
	if m.e.Pending() != 0 {
		m.t.Fatalf("pending=%d after the run", m.e.Pending())
	}
}

// runDiffWorkload drives a self-scheduling workload whose randomness is
// drawn at schedule time from a stream keyed by event id. The delay mix
// spans zero to a hundred seconds — same-instant ties, sub-millisecond
// hops and far-future events in one queue — and one event in four
// schedules a sibling and cancels it at once. One event in five, and
// its canceled sibling, go through AtArg instead of After. Of the rest,
// one in four goes through the first lane at its drawn delay, so posts
// earlier than the lane's tail fall back to the heap, and one in four
// through the second at a constant 0.5 ms hop, which the lane keeps.
func runDiffWorkload(m *model, seed int64, n, depth int) {
	var sched func(id int64, depth int)
	sched = func(id int64, depth int) {
		rng := rand.New(rand.NewSource(seed ^ id))
		var d Time
		switch rng.Intn(5) {
		case 0:
			d = 0
		case 1:
			d = rng.Float64() * 0.001
		case 2:
			d = rng.Float64() * 0.01
		case 3:
			d = rng.Float64()
		case 4:
			d = rng.Float64() * 100
		}
		kids := rng.Intn(3)
		cancelKid := rng.Intn(4) == 0
		via := rng.Intn(5)
		viaArg := via == 0
		body := func() {
			if depth > 0 {
				for k := 0; k < kids; k++ {
					sched(id*7+int64(k)+1, depth-1)
				}
				if cancelKid {
					d, never := rng.Float64(), func() { panic("canceled event fired") }
					if viaArg {
						h := m.atArg(m.e.Now()+d, never)
						m.cancel(&h.ev, h.idx)
					} else {
						m.cancel(m.after(d, never))
					}
				}
			}
		}
		switch via {
		case 0:
			m.atArg(m.e.Now()+d, body)
		case 1:
			m.laneAfter(m.lanes[0], d, body)
		case 2:
			m.laneAfter(m.lanes[1], 0.0005, body)
		default:
			m.after(d, body)
		}
	}
	for i := 0; i < n; i++ {
		sched(int64(i+1)*1000003, depth)
	}
	m.e.Run()
}

// TestSelfSchedulingMatchesModel asserts the engine fires a randomized
// self-scheduling workload — times, FIFO tie-breaks, skipped cancels — in
// exactly the model's order, across many seeds.
func TestSelfSchedulingMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		m := newModel(t)
		runDiffWorkload(m, seed, 300, 6)
		m.finish()
		if m.fired < 300 || m.armed == 0 || m.cancels == 0 || m.appended == 0 || m.fellBack == 0 {
			t.Fatalf("seed %d: only %d events fired (%d through AtArg, %d canceled, %d lane posts kept, %d sent to the heap)",
				seed, m.fired, m.armed, m.cancels, m.appended, m.fellBack)
		}
	}
}

// runCursorWorkload drives the engine in RunUntil slices: after each
// short deadline it posts events at exactly Now() (and just past it),
// which must overtake everything the slice left pending, plus periodic
// 60-event bursts inside one millisecond two seconds ahead. One burst
// event in three goes through AtArg, and half of those are canceled
// before they fire. Every other post picks the heap (Post) or one of the
// two lanes at random, so lane posts land both after and before their
// lane's tail. One slice in eight also posts a lane event that stops the
// run inside the slice, which then resumes. It returns how many
// deadlines fell between the earliest lane head and the heap top, and
// how many runs a lane event stopped.
func runCursorWorkload(m *model, seed int64) (straddles, stops int) {
	e := m.e
	rng := rand.New(rand.NewSource(seed))
	post := func(at Time) {
		if k := rng.Intn(3); k < len(m.lanes) {
			m.laneArg(m.lanes[k], at)
		} else {
			m.post(at)
		}
	}
	for i := 0; i < 400; i++ {
		post(rng.Float64() * 10)
	}
	budget := 3000
	deadline := Time(0)
	for e.Pending() > 0 {
		step := 0.05 + rng.Float64()*0.2
		deadline += step
		stopped := false
		if rng.Intn(8) == 0 {
			m.laneAfter(m.lanes[rng.Intn(len(m.lanes))], rng.Float64()*step, func() {
				e.Stop()
				stopped = true
			})
		}
		laneHead, heapTop := math.Inf(1), math.Inf(1)
		for _, l := range m.lanes {
			if l.n > 0 {
				laneHead = min(laneHead, l.ring[l.head].k.at)
			}
		}
		if len(e.keys) > 0 {
			heapTop = e.keys[0].at
		}
		if min(laneHead, heapTop) <= deadline && deadline < max(laneHead, heapTop) {
			straddles++
		}
		m.deadline = deadline
		for {
			got := e.RunUntil(deadline)
			if !stopped {
				if got != deadline {
					m.t.Fatalf("RunUntil(%v) returned %v", deadline, got)
				}
				break
			}
			if got > deadline {
				m.t.Fatalf("RunUntil(%v) stopped at %v", deadline, got)
			}
			stopped = false
			stops++
		}
		m.deadline = -1
		if budget <= 0 {
			continue
		}
		for j, k := 0, rng.Intn(4); j < k; j++ {
			budget -= 2
			post(e.Now()) // same timestamp as the deadline just reached
			post(e.Now() + rng.Float64()*0.001)
		}
		if rng.Intn(10) == 0 {
			base := e.Now() + 2.0
			for j := 0; j < 60; j++ {
				budget--
				at := base + rng.Float64()*0.001
				if rng.Intn(3) != 0 {
					post(at)
					continue
				}
				h := m.atArg(at, func() {})
				if rng.Intn(2) == 0 {
					m.cancel(&h.ev, h.idx)
				}
			}
		}
	}
	return straddles, stops
}

// TestRunUntilFillsMatchModel pins deadline-sliced running: events
// posted between slices at the current instant, and dense bursts ahead of
// it, must fire in the model's (time, FIFO) order with none lost, across
// the heap and two lanes, deadlines that fire a lane's head but not the
// heap top or the other way round, and runs a lane event stops.
func TestRunUntilFillsMatchModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := newModel(t)
		straddles, stops := runCursorWorkload(m, seed)
		m.finish()
		if m.armed == 0 || m.cancels == 0 || m.appended == 0 || m.fellBack == 0 || straddles == 0 || stops == 0 {
			t.Fatalf("seed %d: %d events through AtArg, %d canceled, %d lane posts kept, %d sent to the heap, %d deadlines between a lane head and the heap top, %d stops",
				seed, m.armed, m.cancels, m.appended, m.fellBack, straddles, stops)
		}
	}
}
