package protocol

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWheelFiresInOrder arms timers at staggered delays and checks they
// fire, never early, and in deadline order.
func TestWheelFiresInOrder(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 64)
	defer w.Stop()
	var mu sync.Mutex
	var order []int
	start := time.Now()
	var wg sync.WaitGroup
	delays := []time.Duration{40 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond}
	for i, d := range delays {
		i, d := i, d
		wg.Add(1)
		w.AfterFunc(d, func() {
			defer wg.Done()
			if el := time.Since(start); el < d {
				t.Errorf("timer %d fired after %v, before its %v deadline", i, el, d)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
}

// TestWheelNeverFiresEarly arms delays that are not multiples of the
// tick, at every phase of it: a wheel that counts d/tick+1 advances from
// its last advanced slot fires nearly half of these before their
// deadline, by up to most of a tick.
func TestWheelNeverFiresEarly(t *testing.T) {
	const tick = 10 * time.Millisecond
	w := NewTimerWheel(tick, 64)
	defer w.Stop()
	var mu sync.Mutex
	var early int
	var worst time.Duration
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		time.Sleep(time.Duration(i%7) * 300 * time.Microsecond) // drift across the tick
		d := 15*time.Millisecond + time.Duration(i%9)*time.Millisecond
		wg.Add(1)
		start := time.Now()
		w.AfterFunc(d, func() {
			defer wg.Done()
			if short := d - time.Since(start); short > 0 {
				mu.Lock()
				early++
				worst = max(worst, short)
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	if early != 0 {
		t.Fatalf("%d of 200 timers fired before their deadline, the worst by %v", early, worst)
	}
}

// TestWheelStopPreventsFire pins Timer.Stop semantics: true when the
// cancel wins, false after the fire, and a canceled timer never runs.
func TestWheelStopPreventsFire(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 64)
	defer w.Stop()
	var fired atomic.Int32
	tm := w.AfterFunc(50*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	done := make(chan struct{})
	tm2 := w.AfterFunc(5*time.Millisecond, func() { close(done) })
	<-done
	if tm2.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	time.Sleep(80 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("canceled timer fired")
	}
}

// TestWheelLongDelayWraps arms a delay longer than the ring span
// (tick × slots), which must wrap with a rounds counter, still firing
// no earlier than its deadline.
func TestWheelLongDelayWraps(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 8) // ring span 8ms
	defer w.Stop()
	start := time.Now()
	done := make(chan struct{})
	const d = 45 * time.Millisecond // > 5 ring revolutions
	w.AfterFunc(d, func() { close(done) })
	select {
	case <-done:
		if el := time.Since(start); el < d {
			t.Fatalf("wrapped timer fired after %v, before its %v deadline", el, d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wrapped timer never fired")
	}
}

// TestWheelSharedAcrossOwners models the multiplexed-worker shape: many
// owners arming and canceling concurrently on one wheel.
func TestWheelSharedAcrossOwners(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 128)
	defer w.Stop()
	const owners, per = 16, 20
	var fired, canceledFired atomic.Int32
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d := time.Duration(1+(o+i)%20) * time.Millisecond
				if i%3 == 0 {
					// Armed then immediately canceled: must not fire.
					tm := w.AfterFunc(d, func() { canceledFired.Add(1) })
					tm.Stop()
				} else {
					var inner sync.WaitGroup
					inner.Add(1)
					w.AfterFunc(d, func() { fired.Add(1); inner.Done() })
					inner.Wait()
				}
			}
		}(o)
	}
	wg.Wait()
	if n := canceledFired.Load(); n != 0 {
		t.Fatalf("%d canceled timers fired", n)
	}
	// i%3==0 for i in 0..19 → 7 canceled, 13 fired per owner.
	if got := fired.Load(); got != int32(owners*13) {
		t.Fatalf("fired = %d, want %d", got, owners*13)
	}
}

// TestWheelAfterStopIsInert arms on a stopped wheel: the timer never
// fires and Stop reports false.
func TestWheelAfterStopIsInert(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 8)
	w.Stop()
	w.Stop() // idempotent
	var fired atomic.Int32
	tm := w.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("timer armed on a stopped wheel fired")
	}
	if tm.Stop() {
		t.Fatal("inert timer Stop returned true")
	}
}

// fireLog records when a timer's callback runs. The channel has room
// for a few surplus firings, so a timer that fires too often fails the
// test in quiet instead of blocking the goroutine it fires on.
type fireLog struct {
	fired chan time.Time
}

func newFireLog() *fireLog { return &fireLog{fired: make(chan time.Time, 4)} }

func (l *fireLog) fn() { l.fired <- time.Now() }

// next waits for the next firing and fails if it came before the
// deadline armed at start+d.
func (l *fireLog) next(t *testing.T, start time.Time, d time.Duration) {
	t.Helper()
	select {
	case at := <-l.fired:
		if el := at.Sub(start); el < d {
			t.Fatalf("fired %v after the arm, before its %v deadline", el, d)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("a timer armed for %v never fired", d)
	}
}

// quiet fails if the timer fires within d.
func (l *fireLog) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case <-l.fired:
		t.Fatal("the timer fired once too often")
	case <-time.After(d):
	}
}

// TestTimerResetContract pins Reset on the wheel: a timer
// re-armed after it fired, after it was stopped, or while pending fires
// once, at its new deadline, and Stop after Reset cancels the new arm.
// An arm that Stop or Reset superseded still waits in its
// old slot; the stale cases are the ones where that slot comes round
// before the new deadline (after Stop) or after it (pending).
func TestTimerResetContract(t *testing.T) {
	wheel := NewTimerWheel(time.Millisecond, 64) // ring span 64ms: the 100ms arms wrap
	defer wheel.Stop()
	t.Run("wheel", func(t *testing.T) {
		t.Run("after fire", func(t *testing.T) {
			l := newFireLog()
			start := time.Now()
			tm := wheel.AfterFunc(5*time.Millisecond, l.fn)
			l.next(t, start, 5*time.Millisecond)
			start = time.Now()
			if tm.Reset(30 * time.Millisecond) {
				t.Fatal("Reset after the fire reported the timer pending")
			}
			l.next(t, start, 30*time.Millisecond)
			l.quiet(t, 60*time.Millisecond)
		})
		t.Run("after stop", func(t *testing.T) {
			l := newFireLog()
			tm := wheel.AfterFunc(20*time.Millisecond, l.fn)
			if !tm.Stop() {
				t.Fatal("Stop on a pending timer returned false")
			}
			start := time.Now()
			if tm.Reset(100 * time.Millisecond) {
				t.Fatal("Reset after Stop reported the timer pending")
			}
			l.next(t, start, 100*time.Millisecond) // not at the stopped arm's 20ms
			l.quiet(t, 60*time.Millisecond)
		})
		t.Run("pending", func(t *testing.T) {
			l := newFireLog()
			tm := wheel.AfterFunc(100*time.Millisecond, l.fn)
			start := time.Now()
			if !tm.Reset(20 * time.Millisecond) {
				t.Fatal("Reset on a pending timer reported it idle")
			}
			l.next(t, start, 20*time.Millisecond)
			l.quiet(t, 130*time.Millisecond) // past the first arm's 100ms
		})
		t.Run("stop after reset", func(t *testing.T) {
			l, start := newFireLog(), time.Now()
			tm := wheel.AfterFunc(5*time.Millisecond, l.fn)
			l.next(t, start, 5*time.Millisecond)
			tm.Reset(30 * time.Millisecond)
			if !tm.Stop() {
				t.Fatal("Stop after Reset returned false")
			}
			if tm.Stop() {
				t.Fatal("second Stop returned true")
			}
			l.quiet(t, 80*time.Millisecond)
		})
	})
}
