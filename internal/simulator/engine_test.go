package simulator

import (
	"fmt"
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
	lane := eng.NewLane()
	eng.At(10, func() {
		// NaN compares false against everything: it must be rejected
		// like a past time, not slip through into the heap's ordering.
		for _, c := range []struct {
			name string
			t    Time
		}{{"the past", 5}, {"NaN", math.NaN()}} {
			mustPanic(t, "At "+c.name, func() { eng.At(c.t, func() {}) })
			mustPanic(t, "Post "+c.name, func() { eng.Post(c.t, func() {}) })
			mustPanic(t, "AtArg "+c.name, func() { eng.AtArg(new(Event), c.t, func(any) {}, nil) })
			mustPanic(t, "Lane.PostArg "+c.name, func() { lane.PostArg(c.t, func(any) {}, nil) })
		}
	})
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("a rejected event was queued: pending=%d", eng.Pending())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	eng := New(1)
	lane := eng.NewLane()
	for _, c := range []struct {
		name string
		d    Time
	}{{"negative delay", -1}, {"NaN delay", math.NaN()}} {
		mustPanic(t, "After "+c.name, func() { eng.After(c.d, func() {}) })
		mustPanic(t, "PostAfter "+c.name, func() { eng.PostAfter(c.d, func() {}) })
		mustPanic(t, "PostAfterArg "+c.name, func() { eng.PostAfterArg(c.d, func(any) {}, nil) })
		mustPanic(t, "Lane.PostAfter "+c.name, func() { lane.PostAfter(c.d, func() {}) })
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

// TestPostArgInterleavesFIFOWithPost pins the ordering contract of the
// arg posts (AtArg, PostAfterArg): arg-carrying events share the same
// (time, scheduling order) queue as closure events, so a mixed
// same-timestamp sequence fires in exactly the order it was posted — the
// property the decentralized adapter's message coalescing and pooled
// dispatch rely on.
func TestPostArgInterleavesFIFOWithPost(t *testing.T) {
	e := New(1)
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	var hs [12]Event
	for i := 0; i < 12; i++ {
		i := i
		if i%3 == 0 {
			e.Post(1.0, func() { got = append(got, i) })
		} else {
			e.AtArg(&hs[i], 1.0, record, i)
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

// TestArgCycleAllocatesNothing pins the handle-owning payload post at
// zero allocations once the keys, slab and free list have grown: an
// AtArg that fires, an AtArg canceled under its caller-owned handle, and
// the RunUntil that pops both.
func TestArgCycleAllocatesNothing(t *testing.T) {
	e := New(1)
	var fires, canceled Event
	fired := 0
	fn := func(any) { fired++ }
	arg := &struct{ n int }{}
	cycle := func() {
		e.AtArg(&fires, e.Now()+2, fn, arg)
		e.AtArg(&canceled, e.Now()+2, fn, arg)
		canceled.Cancel()
		e.RunUntil(e.Now() + 3)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("AtArg/Cancel/RunUntil cycle allocates %v, want 0", n)
	}
	if runs := 102; fired != runs || e.Pending() != 0 {
		t.Fatalf("fired %d over %d cycles (pending %d), want 1 a cycle", fired, runs, e.Pending())
	}
}

// TestLaneKeepsFiringOrder pins that a lane is only a container: posts
// no earlier than the lane's tail are appended, an earlier one goes to
// the heap, and the whole sequence fires in (time, scheduling order)
// with the heap's own events, same-instant ties included. Each event's
// id is its place in the expected firing order.
func TestLaneKeepsFiringOrder(t *testing.T) {
	e := New(1)
	a, b := e.NewLane(), e.NewLane()
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	post := func(l *Lane, at Time, id int, wantLane bool) {
		t.Helper()
		n := l.n
		l.PostArg(at, record, id)
		if inLane := l.n == n+1; inLane != wantLane {
			t.Fatalf("post %d at %v: appended to the lane = %v, want %v", id, at, inLane, wantLane)
		}
	}
	post(a, 2, 3, true)
	e.AtArg(new(Event), 2, record, 4)
	post(a, 2, 5, true)  // a tie with the tail is no earlier: appended
	post(a, 1, 0, false) // earlier than the tail: the heap takes it
	post(b, 3, 7, true)
	post(b, 1, 1, false)
	e.AtArg(new(Event), 1, record, 2)
	post(a, 5, 8, true)
	b.PostAfter(2.5, func() { got = append(got, 6) }) // before b's tail: heap
	if e.Pending() != 9 {
		t.Fatalf("Pending() = %d, want 9", e.Pending())
	}
	e.Run()
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestRunUntilMergesLaneAndHeap pins a deadline that falls between a
// lane head and the heap top, either way round: the earlier one fires,
// the later one stays pending, and time stops at the deadline.
func TestRunUntilMergesLaneAndHeap(t *testing.T) {
	for _, laneFirst := range []bool{true, false} {
		e := New(1)
		l := e.NewLane()
		var got []string
		laneAt, heapAt := Time(2), Time(1)
		if laneFirst {
			laneAt, heapAt = 1, 2
		}
		l.PostAfter(laneAt, func() { got = append(got, "lane") })
		e.PostAfter(heapAt, func() { got = append(got, "heap") })
		if now := e.RunUntil(1.5); now != 1.5 || len(got) != 1 || e.Pending() != 1 {
			t.Fatalf("laneFirst=%v: RunUntil(1.5) = %v, fired %v, pending %d; want 1.5, one event, one pending",
				laneFirst, now, got, e.Pending())
		}
		if want := map[bool]string{true: "lane", false: "heap"}[laneFirst]; got[0] != want {
			t.Fatalf("laneFirst=%v: %s fired first, want %s", laneFirst, got[0], want)
		}
		e.Run()
		if len(got) != 2 || e.Now() != 2 {
			t.Fatalf("laneFirst=%v: fired %v by %v, want both by 2", laneFirst, got, e.Now())
		}
	}
}

// TestLaneStopAndDrain pins Stop from a lane event: a stopped run
// leaves the rest of the lane pending and counted, a post earlier than
// the stopped lane's tail goes to the heap, and the next run drains all
// of it in time order.
func TestLaneStopAndDrain(t *testing.T) {
	e := New(1)
	l := e.NewLane()
	var got []Time
	record := func() { got = append(got, e.Now()) }
	for i := 1; i <= 5; i++ {
		l.PostAfter(Time(i), func() {
			record()
			if len(got) == 2 {
				e.Stop()
			}
		})
	}
	e.PostAfter(10, record)
	e.Run()
	if len(got) != 2 || e.Now() != 2 || e.Pending() != 4 {
		t.Fatalf("stopped run fired %d by %v with %d pending; want 2 by 2 with 4", len(got), e.Now(), e.Pending())
	}
	l.PostAfter(0.5, record)
	if l.n != 3 {
		t.Fatal("a post before the lane's tail was appended to the lane")
	}
	e.Run()
	if want := []Time{1, 2, 2.5, 3, 4, 5, 10}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestLaneCycleAllocatesNothing pins a warmed post-and-fire cycle
// through a lane at zero allocations: an in-order PostArg and PostAfter
// appended to the lane, an out-of-order one the heap takes, and the
// RunUntil that fires all three.
func TestLaneCycleAllocatesNothing(t *testing.T) {
	e := New(1)
	l := e.NewLane()
	fired := 0
	fn := func(any) { fired++ }
	tick := func() { fired++ }
	arg := &struct{ n int }{}
	cycle := func() {
		l.PostArg(e.Now()+2, fn, arg)
		l.PostAfter(3, tick)
		l.PostArg(e.Now()+1, fn, arg)
		e.RunUntil(e.Now() + 3)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("lane post/RunUntil cycle allocates %v, want 0", n)
	}
	if runs := 102; fired != 3*runs || e.Pending() != 0 {
		t.Fatalf("fired %d over %d cycles (pending %d), want 3 a cycle", fired, runs, e.Pending())
	}
}
