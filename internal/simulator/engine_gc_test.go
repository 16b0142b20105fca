package simulator

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// payload is a finalizable event argument; tests use finalizers to prove
// the engine's backing arrays hold no reference after Drain/consumption.
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

// calibrated returns an engine pushed past calibration so the calendar
// ring (near buffer, buckets, overflow) is in use.
func calibrated() *Engine {
	e := New(1)
	for i := 0; i < calibrateAfter+16; i++ {
		e.Post(Time(i)*0.001, func() {})
	}
	e.RunUntil(0.001 * Time(calibrateAfter+16))
	if !e.calOn {
		panic("warmup did not calibrate the calendar")
	}
	return e
}

// plant schedules events referencing fresh payloads through every queue
// structure: the near bucket (behind-cursor insert), the calendar ring,
// and the overflow heap (far beyond the ring horizon), via closure,
// PostArg payload, and cancellation handle.
func plant(e *Engine, collected []atomic.Bool) {
	mk := func(i int) *payload {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { collected[i].Store(true) })
		return p
	}
	horizon := e.width * Time(len(e.buckets))
	p0 := mk(0)
	e.PostArg(e.Now(), func(any) {}, p0) // behind-cursor: into near
	p1 := mk(1)
	e.PostArg(e.Now()+e.width*2, func(any) {}, p1) // into the ring
	p2 := mk(2)
	e.PostArg(e.Now()+horizon*10, func(any) {}, p2) // into overflow
	p3 := mk(3)
	e.After(e.width*3, func() { _ = p3 }) // closure + handle into the ring
}

// TestDrainReleasesReferences pins the Drain scrub: after Drain, the
// engine's retained buffer capacity must not keep event payloads,
// closures, or handles alive.
func TestDrainReleasesReferences(t *testing.T) {
	e := calibrated()
	collected := make([]atomic.Bool, 4)
	plant(e, collected)
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

// TestRunReleasesReferences pins the popMin and bucket swap-in scrubs:
// once events have fired, nothing in the near buffer, ring, or overflow
// capacity may still reference them.
func TestRunReleasesReferences(t *testing.T) {
	e := calibrated()
	collected := make([]atomic.Bool, 4)
	plant(e, collected)
	e.Run()
	for i := range collected {
		if !awaitCollected(&collected[i]) {
			t.Fatalf("payload %d still referenced after Run consumed it", i)
		}
	}
}
