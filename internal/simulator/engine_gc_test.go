package simulator

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// payload is a finalizable event argument; tests use finalizers to prove
// the engine's slab holds no reference after Drain/consumption.
type payload struct{ pad [64]byte }

// awaitCollected forces GC cycles until the flag flips or the budget runs
// out. Finalizers run on a background goroutine (hence the atomic flag),
// so a couple of cycles plus Gosched is needed even when the object is
// genuinely unreachable.
func awaitCollected(collected *atomic.Bool) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		runtime.Gosched()
		if collected.Load() {
			return true
		}
	}
	return collected.Load()
}

// plant fills the heap with inert events, then schedules events holding
// fresh finalizable payloads whose keys come to rest at the root, an
// interior node and the last leaf of the heap — via PostArg payload, via
// closure, and via the cancellation handle itself. It reads each payload
// through the slab entry its key names.
func plant(t *testing.T, e *Engine, collected []atomic.Bool) {
	t.Helper()
	mk := func(i int) *payload {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { collected[i].Store(true) })
		return p
	}
	for i := 1; i <= 64; i++ {
		e.Post(Time(i), func() {})
	}
	interior := mk(0)
	h := e.After(1.5, func() { _ = interior }) // closure + handle
	runtime.SetFinalizer(h, func(*Event) { collected[1].Store(true) })
	e.PostArg(e.Now(), func(any) {}, mk(2)) // earliest: sifts up to the root
	e.PostArg(1000, func(any) {}, mk(3))    // latest: stays where push appended it

	n := len(e.keys)
	if e.slab[e.keys[0].idx].arg == nil {
		t.Fatal("PostArg payload at Now() is not at the heap root")
	}
	if e.slab[e.keys[n-1].idx].arg == nil {
		t.Fatal("far-future PostArg payload is not at the last leaf")
	}
	for i, k := range e.keys {
		if e.slab[k.idx].h != nil && (i == 0 || 2*i+1 >= n) {
			t.Fatalf("handle-bearing event sits at index %d of %d, not an interior node", i, n)
		}
	}
}

// TestDrainReleasesReferences pins the Drain scrub: after Drain, the
// queue's retained capacity must not keep event payloads, closures, or
// handles alive.
func TestDrainReleasesReferences(t *testing.T) {
	e := New(1)
	collected := make([]atomic.Bool, 4)
	plant(t, e, collected)
	e.Drain()
	for i := range collected {
		if !awaitCollected(&collected[i]) {
			t.Fatalf("payload %d still referenced after Drain", i)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d after Drain", e.Pending())
	}
}

// TestRunReleasesReferences pins the scrub in pop: once events have
// fired, the slab entries they vacated may not still reference them.
func TestRunReleasesReferences(t *testing.T) {
	e := New(1)
	collected := make([]atomic.Bool, 4)
	plant(t, e, collected)
	e.Run()
	for i := range collected {
		if !awaitCollected(&collected[i]) {
			t.Fatalf("payload %d still referenced after Run consumed it", i)
		}
	}
	// Without this the engine itself is garbage by now and the test
	// passes whatever its slab holds.
	runtime.KeepAlive(e)
}

// TestRecycledSlotPinsNothing pins the free list: events posted after a
// run reuse the slab entries the fired events vacated (the slab does not
// grow), and while those new events are pending the payloads that once
// sat in the same entries are collectable.
func TestRecycledSlotPinsNothing(t *testing.T) {
	e := New(1)
	collected := make([]atomic.Bool, 4)
	plant(t, e, collected)
	e.Run()
	n := len(e.slab)
	if len(e.free) != n {
		t.Fatalf("%d of %d slab entries free after Run", len(e.free), n)
	}
	for i := 0; i < n; i++ {
		e.PostArg(e.Now()+Time(i), func(any) {}, nil)
	}
	if len(e.slab) != n || len(e.free) != 0 {
		t.Fatalf("slab grew to %d (free %d) reposting %d events; want every entry recycled", len(e.slab), len(e.free), n)
	}
	for i := range collected {
		if !awaitCollected(&collected[i]) {
			t.Fatalf("payload %d still referenced by a recycled slab entry", i)
		}
	}
	runtime.KeepAlive(e)
}

// TestLaneReleasesReferences pins the lane's scrub: a lane event that
// fired, or that Drain dropped, pins neither its PostArg payload nor the
// closure of its PostAfter, although the ring keeps its capacity.
func TestLaneReleasesReferences(t *testing.T) {
	for _, drain := range []bool{false, true} {
		e := New(1)
		l := e.NewLane()
		collected := make([]atomic.Bool, 2)
		arg := &payload{}
		runtime.SetFinalizer(arg, func(*payload) { collected[0].Store(true) })
		captured := &payload{}
		runtime.SetFinalizer(captured, func(*payload) { collected[1].Store(true) })
		l.PostArg(1, func(any) {}, arg)
		l.PostAfter(2, func() { _ = captured })
		arg, captured = nil, nil
		if l.n != 2 {
			t.Fatalf("%d of 2 in-order posts in the lane", l.n)
		}
		if drain {
			e.Drain()
		} else {
			e.Run()
		}
		for i := range collected {
			if !awaitCollected(&collected[i]) {
				t.Fatalf("drain=%v: lane payload %d still referenced", drain, i)
			}
		}
		if len(l.ring) < 2 {
			t.Fatalf("drain=%v: the ring gave up its capacity (%d)", drain, len(l.ring))
		}
		runtime.KeepAlive(e)
	}
}
