// Clock seam for the live adapters. The protocol cores themselves are
// clock-agnostic (they take virtual timestamps as arguments); what needs
// a clock is the deployment layer around them — running-copy completion,
// the offer-expiry sweep (what expires is the worker core's call: the
// adapter only times Worker.ExpireOffers), copy watchdogs, probe
// retries, reprobe ticks, unlock delays. A live node arms every timer
// and reads every time that decides what it does through its
// TimerService, for two reasons: thousands of multiplexed workers share
// one timer wheel (one goroutine, O(1) arm/cancel) instead of costing a
// runtime timer each, and a test can put the shipped nodes on a
// simulation engine's clock (internal/live's chaos suite) where a lost
// frame and the timeout that recovers from it replay from a seed.
package protocol

import (
	"sync"
	"time"
)

// Timer is an armed callback, with the contract of a *time.Timer made
// by time.AfterFunc. Stop cancels it, reporting true when the
// cancellation prevented the callback from running. Reset re-arms it to
// run the same callback once after d, whether it is pending, fired or
// stopped, reporting true when it was pending: a re-armed timer fires
// once, at its new deadline. Reset is how an owner that arms the same
// callback again and again keeps one timer instead of building one per
// arm.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// TimerService is a node's clock: it arms callbacks and tells the time
// they are measured against. Implementations: WallTimers (runtime
// timers, exact) and TimerWheel (shared hashed wheel, tick-granular),
// both on the wall clock.
type TimerService interface {
	// AfterFunc runs f once after d elapses, on an unspecified
	// goroutine. f must not block for long: wheel implementations run
	// callbacks inline on the shared wheel goroutine.
	AfterFunc(d time.Duration, f func()) Timer
	// Now is the current time on the clock AfterFunc's delays elapse on.
	Now() time.Time
}

// WallTimers is the default TimerService: one runtime timer per
// callback, exact firing. Right for a handful of workers; at thousands
// per process the per-timer heap traffic is what the wheel removes.
var WallTimers TimerService = wallTimers{}

type wallTimers struct{}

func (wallTimers) AfterFunc(d time.Duration, f func()) Timer {
	return wallTimer{t: time.AfterFunc(d, f)}
}

func (wallTimers) Now() time.Time { return time.Now() }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() bool { return w.t.Stop() }

func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

// TimerWheel is a hashed timer wheel: a ring of slots advanced by one
// goroutine at a fixed tick. Arming and canceling are O(1) under one
// lock; firing is amortized O(1) per timer. Precision is one tick
// (callbacks fire up to one tick late, never early) — fine for the
// protocol's retry/cooldown/watchdog timers, which are milliseconds to
// seconds; anything needing microsecond exactness should use
// WallTimers.
//
// Callbacks run inline on the wheel goroutine, so a blocking callback
// delays every timer behind it. The live adapters' callbacks only post
// an event to their node's inbox (1024-deep), which blocks only if a
// node loop is wedged — the same coupling a shared runtime would have.
type TimerWheel struct {
	tick  time.Duration
	start time.Time // tick n is due at start + n×tick
	mask  int
	shift uint // log2(len(slots)), for the rounds computation

	mu      sync.Mutex
	slots   [][]wheelEntry
	cur     int   // last advanced slot
	ticks   int64 // advances performed
	stopped bool

	fire []*wheelTimer // advance's due list, reused; owned by the run goroutine

	done chan struct{}
	wg   sync.WaitGroup
}

// NewTimerWheel starts a wheel with the given tick and slot count
// (rounded up to a power of two; ring span = tick × slots, longer
// delays wrap with a rounds counter). A zero tick defaults to 1ms, a
// slot count < 2 to 512. Stop the wheel when its owners are done.
func NewTimerWheel(tick time.Duration, slots int) *TimerWheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	if slots < 2 {
		slots = 512
	}
	n, shift := 1, uint(0)
	for n < slots {
		n <<= 1
		shift++
	}
	w := &TimerWheel{
		tick:  tick,
		start: time.Now(),
		mask:  n - 1,
		shift: shift,
		slots: make([][]wheelEntry, n),
		done:  make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

// Stop halts the wheel goroutine. Pending timers never fire; AfterFunc
// on a stopped wheel returns an inert timer. Idempotent.
func (w *TimerWheel) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
}

// wheelTimer is one callback and its own Stop and Reset handle; gen
// and pending are guarded by the wheel's lock. gen numbers the timer's
// arms: Stop and Reset each start a new one, so a slot entry left from
// an earlier arm is stale and is dropped, not fired, when the wheel
// reaches it.
type wheelTimer struct {
	wheel   *TimerWheel
	fn      func()
	gen     uint64
	pending bool
}

// wheelEntry is one arm of a timer waiting in a slot: it fires after
// rounds more visits of its slot if the timer is still on arm gen.
type wheelEntry struct {
	t      *wheelTimer
	gen    uint64
	rounds int
}

// inertTimer is returned after Stop; it never fires.
type inertTimer struct{}

func (inertTimer) Stop() bool { return false }

func (inertTimer) Reset(time.Duration) bool { return false }

// AfterFunc arms f to run once after d. Firing is rounded up to the
// next tick boundary, so a timer never fires before its deadline.
func (w *TimerWheel) AfterFunc(d time.Duration, f func()) Timer {
	t := &wheelTimer{wheel: w, fn: f}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return inertTimer{}
	}
	w.arm(t, d)
	return t
}

// arm puts t's next arm in the slot its deadline falls in. The caller
// holds the lock.
func (w *TimerWheel) arm(t *wheelTimer, d time.Duration) {
	// The first tick due at or after the deadline, counted from the
	// wheel's start and not from the last advance: the wheel may be part
	// of a tick, or several late ticker deliveries, behind the clock.
	due := int64((time.Since(w.start) + max(d, 0) + w.tick - 1) / w.tick)
	ticks := max(due-w.ticks, 1) // min 1 keeps it out of the in-progress advance
	// The timer fires on the ticks-th future advance, which visits slot
	// (cur+ticks) mod ring; earlier visits of that slot are skipped by
	// the rounds counter — floor((ticks-1)/ring) of them.
	t.gen++
	t.pending = true
	slot := (w.cur + int(ticks&int64(w.mask))) & w.mask
	w.slots[slot] = append(w.slots[slot], wheelEntry{t: t, gen: t.gen, rounds: int((ticks - 1) >> w.shift)})
}

// Now is the wall clock: the wheel's ticks are derived from it (run).
func (w *TimerWheel) Now() time.Time { return time.Now() }

func (t *wheelTimer) Stop() bool {
	t.wheel.mu.Lock()
	defer t.wheel.mu.Unlock()
	was := t.pending
	t.gen++
	t.pending = false
	return was
}

// Reset re-arms t; on a stopped wheel it stays quiet, as AfterFunc's
// inert timer does.
func (t *wheelTimer) Reset(d time.Duration) bool {
	w := t.wheel
	w.mu.Lock()
	defer w.mu.Unlock()
	was := t.pending
	if w.stopped {
		t.gen++
		t.pending = false
	} else {
		w.arm(t, d)
	}
	return was
}

// run advances the wheel. Ticks are derived from elapsed wall time (not
// counted ticker deliveries), so a delayed or coalesced tick catches
// up instead of stretching every pending delay.
func (w *TimerWheel) run() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.tick)
	defer ticker.Stop()
	for {
		select {
		case <-w.done:
			return
		case now := <-ticker.C:
			target := int64(now.Sub(w.start) / w.tick)
			for w.advance(target) {
			}
		}
	}
}

// advance moves the wheel one slot towards tick count target and runs
// the callbacks that came due, reporting false once the wheel is there
// (or stopped). The slot is filtered in place and the due list reuses
// one buffer, so a tick allocates nothing however many long timers it
// steps over.
func (w *TimerWheel) advance(target int64) bool {
	w.mu.Lock()
	if w.ticks >= target || w.stopped {
		w.mu.Unlock()
		return false
	}
	w.ticks++
	w.cur = (w.cur + 1) & w.mask
	slot := w.slots[w.cur]
	keep, fire := slot[:0], w.fire[:0]
	for _, e := range slot {
		switch {
		case e.gen != e.t.gen: // stopped or re-armed since
		case e.rounds > 0:
			e.rounds--
			keep = append(keep, e)
		default:
			e.t.pending = false
			fire = append(fire, e.t)
		}
	}
	clear(slot[len(keep):]) // dropped timers must not stay reachable
	w.slots[w.cur] = keep
	w.mu.Unlock()
	for _, t := range fire {
		t.fn()
	}
	clear(fire)
	w.fire = fire
	return true
}
