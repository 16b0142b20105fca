package simulator

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	eng := New(1)
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		eng.At(d, func() { got = append(got, d) })
	}
	eng.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if eng.Now() != 5 {
		t.Fatalf("final time %v, want 5", eng.Now())
	}
}

func TestTiesFireFIFO(t *testing.T) {
	eng := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(7, func() { got = append(got, i) })
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order not FIFO: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	eng := New(1)
	var at Time
	eng.At(10, func() {
		eng.After(5, func() { at = eng.Now() })
	})
	eng.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	eng := New(1)
	fired := false
	ev := eng.At(3, func() { fired = true })
	ev.Cancel()
	eng.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
}

func TestCancelDuringRun(t *testing.T) {
	eng := New(1)
	fired := false
	later := eng.At(5, func() { fired = true })
	eng.At(2, func() { later.Cancel() })
	eng.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

// mustPanic runs f and reports an error unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	f()
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := New(1)
	eng.At(10, func() {
		// NaN compares false against everything: it must be rejected
		// like a past time, not slip through into the heap's ordering.
		for _, c := range []struct {
			name string
			t    Time
		}{{"the past", 5}, {"NaN", math.NaN()}} {
			mustPanic(t, "At "+c.name, func() { eng.At(c.t, func() {}) })
			mustPanic(t, "Post "+c.name, func() { eng.Post(c.t, func() {}) })
			mustPanic(t, "PostArg "+c.name, func() { eng.PostArg(c.t, func(any) {}, nil) })
		}
	})
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("a rejected event was queued: pending=%d", eng.Pending())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	eng := New(1)
	for _, c := range []struct {
		name string
		d    Time
	}{{"negative delay", -1}, {"NaN delay", math.NaN()}} {
		mustPanic(t, "After "+c.name, func() { eng.After(c.d, func() {}) })
		mustPanic(t, "PostAfter "+c.name, func() { eng.PostAfter(c.d, func() {}) })
		mustPanic(t, "PostAfterArg "+c.name, func() { eng.PostAfterArg(c.d, func(any) {}, nil) })
	}
	if eng.Pending() != 0 {
		t.Fatalf("a rejected event was queued: pending=%d", eng.Pending())
	}
}

// TestInfiniteTimeOrdersLast pins that +Inf is a legal time: it fires
// after every finite event, FIFO among equals.
func TestInfiniteTimeOrdersLast(t *testing.T) {
	eng := New(1)
	var got []int
	eng.Post(math.Inf(1), func() { got = append(got, 1) })
	eng.PostAfter(math.Inf(1), func() { got = append(got, 2) })
	eng.Post(5, func() { got = append(got, 0) })
	eng.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("firing order %v, want [0 1 2]", got)
	}
}

func TestRunUntil(t *testing.T) {
	eng := New(1)
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4} {
		d := d
		eng.At(d, func() { fired = append(fired, d) })
	}
	eng.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by 2.5, want 2", len(fired))
	}
	if eng.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", eng.Now())
	}
	eng.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d after Run, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	eng := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		eng.At(Time(i), func() {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt: count=%d", count)
	}
	if eng.Pending() != 7 {
		t.Fatalf("pending=%d, want 7", eng.Pending())
	}
}

func TestStopBetweenRunsArmsNextRun(t *testing.T) {
	eng := New(1)
	count := 0
	for i := 1; i <= 4; i++ {
		eng.At(Time(i), func() { count++ })
	}
	eng.RunUntil(2.5)
	if count != 2 {
		t.Fatalf("fired %d by 2.5, want 2", count)
	}
	// Stop with no run in progress must not be dropped: the next run
	// returns before firing anything.
	eng.Stop()
	eng.Run()
	if count != 2 {
		t.Fatalf("armed stop was dropped: count=%d, want 2", count)
	}
	if eng.Pending() != 2 {
		t.Fatalf("pending=%d, want 2", eng.Pending())
	}
	// The stopped run consumed the stop; the run after it proceeds.
	eng.Run()
	if count != 4 {
		t.Fatalf("stop leaked into a second run: count=%d, want 4", count)
	}
}

func TestStopByFinalCallbackArmsNextRun(t *testing.T) {
	eng := New(1)
	// The final event's callback stops the engine; the queue is already
	// empty so the current run ends regardless — the stop must carry over
	// to the next run instead of vanishing... unless that same run's loop
	// exit consumed it. Contract: the loop exit check sees stopped=true
	// and the run consumes it, so the next run proceeds normally.
	fired := 0
	eng.At(1, func() { eng.Stop() })
	eng.Run()
	eng.At(2, func() { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("run after an in-run stop fired %d, want 1", fired)
	}
}

func TestDrain(t *testing.T) {
	eng := New(1)
	eng.At(1, func() { t.Fatal("drained event fired") })
	eng.Drain()
	eng.Run()
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Float64() != b.Rand().Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestEventsDuringEventsPreserveOrder(t *testing.T) {
	// Property: any set of event times, including events scheduled from
	// within events, fires in nondecreasing time order.
	f := func(rawTimes []uint16) bool {
		eng := New(3)
		var fired []Time
		record := func() { fired = append(fired, eng.Now()) }
		for _, rt := range rawTimes {
			d := Time(rt % 1000)
			eng.At(d, func() {
				record()
				eng.After(1, record)
			})
		}
		eng.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := New(1)
		for k := 0; k < 1000; k++ {
			eng.At(Time(k%37), func() {})
		}
		eng.Run()
	}
}

// TestPostArgInterleavesFIFOWithPost pins the PostArg ordering contract:
// arg-carrying events share the same (time, scheduling order) queue as
// closure events, so a mixed same-timestamp sequence fires in exactly
// the order it was posted — the property the decentralized adapter's
// message coalescing and pooled dispatch rely on.
func TestPostArgInterleavesFIFOWithPost(t *testing.T) {
	e := New(1)
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	for i := 0; i < 12; i++ {
		i := i
		if i%3 == 0 {
			e.Post(1.0, func() { got = append(got, i) })
		} else {
			e.PostArg(1.0, record, i)
		}
	}
	e.PostAfterArg(0.5, record, 100)
	e.Run()
	want := []int{100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
}

// TestArgCycleAllocatesNothing pins the handle-owning and handle-free
// payload posts at zero allocations once the keys, slab and free list
// have grown: a PostArg, an AtArg that fires, an AtArg canceled under
// its caller-owned handle, and the RunUntil that pops all three.
func TestArgCycleAllocatesNothing(t *testing.T) {
	e := New(1)
	var fires, canceled Event
	fired := 0
	fn := func(any) { fired++ }
	arg := &struct{ n int }{}
	cycle := func() {
		e.PostArg(e.Now()+1, fn, arg)
		e.AtArg(&fires, e.Now()+2, fn, arg)
		e.AtArg(&canceled, e.Now()+2, fn, arg)
		canceled.Cancel()
		e.RunUntil(e.Now() + 3)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("PostArg/AtArg/Cancel/RunUntil cycle allocates %v, want 0", n)
	}
	if runs := 102; fired != 2*runs || e.Pending() != 0 {
		t.Fatalf("fired %d over %d cycles (pending %d), want 2 a cycle", fired, runs, e.Pending())
	}
}
