package live

// Tests of the node loop's timer rule: cancellation is exact, so a
// firing that cancel or arm withdrew never runs its callback, on either
// kind of clock a node runs on.

import (
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/protocol"
)

// timerRig is one loopTimer on a loop nobody runs: the test steps the
// loop's inbox itself. outstanding and fired are the rig's own account
// of the timer (an arm not withdrawn; its firing in the inbox), which
// the callback checks the loop against.
type timerRig struct {
	t  *testing.T
	l  *loop
	lt loopTimer
	d  time.Duration
	// fire brings the outstanding arm's firing into the inbox: by hand
	// on a still clock, by waiting on a running wheel.
	fire func()

	outstanding, fired bool
	armedAt            time.Time
	runs               int
}

func newTimerRig(t *testing.T, timers protocol.TimerService, d time.Duration) *timerRig {
	r := &timerRig{t: t, l: newLoop(nil, timers, 1), d: d}
	r.l.bind(&r.lt, func() {
		if !r.outstanding || !r.fired {
			t.Fatalf("the loop ran a firing it withdrew (outstanding arm %v, its firing posted %v)", r.outstanding, r.fired)
		}
		if early := r.d - time.Since(r.armedAt); early > 0 {
			t.Fatalf("the callback ran %v before its deadline", early)
		}
		r.outstanding = false
		r.runs++
	})
	return r
}

func (r *timerRig) arm() {
	r.outstanding, r.fired, r.armedAt = true, false, time.Now()
	r.l.arm(&r.lt, r.d)
}

func (r *timerRig) cancel() {
	r.outstanding = false
	r.l.cancel(&r.lt)
}

// fireNow brings the outstanding arm's firing into the inbox.
func (r *timerRig) fireNow() {
	r.t.Helper()
	r.fire()
	r.fired = true
}

// step runs the n oldest entries of the inbox.
func (r *timerRig) step(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		env, ok := r.l.pop()
		if !ok {
			r.t.Fatalf("%d of %d firings in the inbox", i, n)
		}
		env.msg.(event).run()
	}
}

// settle waits out a few deadlines, and for any withdrawn firing still
// on its way, running whatever reaches the inbox meanwhile; then it
// checks the callback has run want times in all.
func (r *timerRig) settle(want int) {
	r.t.Helper()
	time.Sleep(3 * r.d)
	for give := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		r.step(r.l.queued())
		if r.lt.stale == 0 || time.Now().After(give) {
			break
		}
	}
	if r.runs != want {
		r.t.Fatalf("the callback ran %d times, want %d", r.runs, want)
	}
}

// TestLoopTimerCancelsExactly: on a clock fired by hand and on a running
// timer wheel, a cancel before the firing, a cancel or re-arm with the
// firing already in the inbox, and two withdrawn firings in flight at
// once each leave the callback running once per surviving arm, never
// before its deadline, and never for a withdrawn firing.
func TestLoopTimerCancelsExactly(t *testing.T) {
	clocks := []struct {
		name string
		rig  func(t *testing.T) *timerRig
	}{
		{"hand-fired", func(t *testing.T) *timerRig {
			r := newTimerRig(t, &stillTimers{}, 0)
			r.fire = func() { r.lt.t.(*stillTimer).fire() }
			return r
		}},
		{"wheel", func(t *testing.T) *timerRig {
			wheel := protocol.NewTimerWheel(time.Millisecond, 64)
			t.Cleanup(wheel.Stop)
			r := newTimerRig(t, wheel, 5*time.Millisecond)
			r.fire = func() {
				t.Helper()
				n := r.l.queued()
				for give := time.Now().Add(5 * time.Second); r.l.queued() == n; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(give) {
						t.Fatal("the wheel never fired the outstanding arm")
					}
				}
			}
			return r
		}},
	}
	cases := []struct {
		name string
		run  func(r *timerRig)
	}{
		{"cancel before the firing", func(r *timerRig) {
			r.arm()
			r.cancel()
			r.settle(0)
			r.arm() // the timer still works
			r.fireNow()
			r.step(1)
			r.settle(1)
		}},
		{"cancel with the firing in the inbox", func(r *timerRig) {
			r.arm()
			r.fireNow()
			r.cancel()
			r.step(1)
			r.settle(0)
		}},
		{"re-arm with the firing in the inbox", func(r *timerRig) {
			r.arm()
			r.fireNow()
			r.arm()
			r.step(1) // the withdrawn firing
			r.fireNow()
			r.step(1)
			r.settle(1)
		}},
		{"two withdrawn firings in flight", func(r *timerRig) {
			r.arm()
			r.fireNow()
			r.arm()
			r.fireNow()
			r.arm()
			r.step(2)
			r.fireNow()
			r.step(1)
			r.settle(1)
			r.arm()
			r.fireNow()
			r.cancel()
			r.step(1)
			r.settle(1)
		}},
	}
	for _, clock := range clocks {
		for _, c := range cases {
			t.Run(clock.name+"/"+c.name, func(t *testing.T) {
				r := clock.rig(t)
				c.run(r)
				if r.lt.stale != 0 {
					t.Fatalf("%d withdrawn firings never arrived", r.lt.stale)
				}
			})
		}
	}
}

// TestFirstArmAllocatesNothing: a node timer bound when its record was
// built arms on the wheel without allocating, its first arm included.
// The firing's closure is bound once, by loop.bind, and the wheel timer
// is the one the record embeds, so a worker's carved copy records and a
// scheduler's recycled unlock waits cost nothing to arm.
func TestFirstArmAllocatesNothing(t *testing.T) {
	wheel := protocol.NewTimerWheel(time.Millisecond, 512)
	t.Cleanup(wheel.Stop)
	l := newLoop(nil, wheel, 1)
	const runs = 100
	lts := make([]loopTimer, runs+1)
	for i := range lts {
		l.bind(&lts[i], func() {})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		// An hour out and a slot apart: nothing fires, and no slot of
		// the wheel outgrows its room.
		l.arm(&lts[next], time.Hour+time.Duration(next)*time.Millisecond)
		next++
	})
	if allocs != 0 {
		t.Fatalf("a bound timer's first arm allocates %.2f objects, want 0", allocs)
	}
	for i := range lts {
		if !lts[i].armed {
			t.Fatalf("timer %d of %d was never armed", i, len(lts))
		}
		l.cancel(&lts[i])
	}
}
