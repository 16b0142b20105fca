package protocol

import (
	"runtime"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// Steady-state allocation pins for the protocol hot paths. The PR 5
// overhaul (pooled entries/rounds/messages, dense queue layouts,
// Task-side want flags) makes a warmed core allocation-free per
// protocol round; these tests freeze that property so a regression
// shows up as a unit-test failure, not a slow drift in the benchmark's
// allocs_per_decision. testing.AllocsPerRun reports the average over many runs,
// so an amortized pool growth inside the measured window would surface
// as a fractional count — the pin is exactly 0.

// TestWorkerReservationRoundZeroAllocs drives the full worker-side
// reservation lifecycle — probe arrival, negotiation round start,
// offer emission, reply processing, entry purge-and-recycle — and pins
// it at zero allocations once the entry/round pools are warm.
func TestWorkerReservationRoundZeroAllocs(t *testing.T) {
	h := newHarness(t, ModeHopper, 1)
	j := mkJob(60, 4, 1.0)
	h.sc.Admit(j)

	cycle := func() {
		acts := h.w.AddReservation(0, j.ID, 5.0, 4, cluster.Resources{})
		if len(acts) != 1 || acts[0].Kind != WSendOffer {
			t.Fatalf("unexpected action list: %+v", acts)
		}
		a := acts[0]
		// JobDone reply: purges the entry (the queue's only one, so the
		// purge compacts it into the pool) and ends the round (pooled).
		if _, ok := h.w.OnReply(a.Seq, Reply{Job: a.Job, From: a.Sched, JobDone: true}); !ok {
			t.Fatalf("offer %d is not waiting for a reply", a.Seq)
		}
	}
	// Every cycle recycles its entry and its round, so the first warms
	// the pool; a few more warm the queue and action buffers.
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("worker reservation round allocates %.2f/op in steady state, want 0", avg)
	}
	if h.w.activeRounds != 0 || len(h.w.entries) != 0 {
		t.Fatalf("leak: %d rounds active, %d entries queued", h.w.activeRounds, len(h.w.entries))
	}
}

// TestSharedPoolRoundZeroAllocs runs the same lifecycle on two workers
// that share one Pool, alternating, so each entry and round one worker
// recycles is the next one the other takes: handing pooled objects
// between workers allocates nothing either.
func TestSharedPoolRoundZeroAllocs(t *testing.T) {
	var clk testClock
	var stats Stats
	pool := &Pool{}
	var ws [2]*Worker
	for i := range ws {
		ws[i] = newPoolWorker(cluster.MachineID(i), &clk, &stats, pool, func() int { return 1 }, nil)
	}
	cycle := func() {
		for i, w := range ws {
			acts := w.AddReservation(SchedID(i), 7, 5.0, 4, cluster.Resources{})
			if len(acts) != 1 || acts[0].Kind != WSendOffer {
				t.Fatalf("worker %d: unexpected action list: %+v", i, acts)
			}
			a := acts[0]
			if _, ok := w.OnReply(a.Seq, Reply{Job: a.Job, From: a.Sched, JobDone: true}); !ok {
				t.Fatalf("worker %d: offer %d is not waiting for a reply", i, a.Seq)
			}
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("two workers sharing a pool allocate %.2f/op in steady state, want 0", avg)
	}
	if len(pool.entries) != 1 || len(pool.rounds) != 1 {
		t.Fatalf("pool holds %d entries and %d rounds, want the one of each the workers pass between them",
			len(pool.entries), len(pool.rounds))
	}
}

// TestPoolWarmUpAllocatesPerPlane brings 512 fresh worker cores sharing
// one Pool into negotiation at once: each takes a reservation and sends
// its offer before any reply arrives, so every entry, round and queue
// array is live together; then every core gets a JobDone reply. The
// pool's slabs grow with demand and the cores' scratch is the pool's,
// so the whole warm-up costs a few dozen allocations for the plane
// rather than a round, its tried list, an entry, a queue array and an
// action list for every worker.
func TestPoolWarmUpAllocatesPerPlane(t *testing.T) {
	const (
		workers = 512
		bound   = 100 // measured 77; 2,580 with per-worker scratch and one-object refills
	)
	var clk testClock
	var stats Stats
	pool := &Pool{}
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = newPoolWorker(cluster.MachineID(i), &clk, &stats, pool, func() int { return 1 }, nil)
	}
	seqs := make([]uint64, workers)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, w := range ws {
		acts := w.AddReservation(SchedID(i%3), cluster.JobID(i), 5.0, 4, cluster.Resources{})
		if len(acts) != 1 || acts[0].Kind != WSendOffer {
			t.Fatalf("worker %d: unexpected action list: %+v", i, acts)
		}
		seqs[i] = acts[0].Seq
	}
	for i, w := range ws {
		if _, ok := w.OnReply(seqs[i], Reply{Job: cluster.JobID(i), From: SchedID(i % 3), JobDone: true}); !ok {
			t.Fatalf("worker %d: offer %d is not waiting for a reply", i, seqs[i])
		}
	}
	runtime.ReadMemStats(&after)
	if len(pool.entries) != workers || len(pool.rounds) != workers {
		t.Fatalf("pool holds %d entries and %d rounds after the warm-up, want %d of each",
			len(pool.entries), len(pool.rounds), workers)
	}
	if n := after.Mallocs - before.Mallocs; n > bound {
		t.Fatalf("warming %d workers allocated %d objects, want at most %d", workers, n, bound)
	}
}

// TestSchedProbeRoundZeroAllocs pins the scheduler-side steady state:
// a reservation refresh (probe generation with locality targets and
// random fill) plus a refused offer (effVS, smallest-unsatisfied scan,
// ordering metadata) allocate nothing once scratch buffers are warm.
func TestSchedProbeRoundZeroAllocs(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(61, 8, 1.0)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])
	// Saturate occupancy so refusable offers take the refusal path and
	// the cycle leaves the scheduler state untouched.
	h.sc.jobs[j.ID].Occupied = 1000

	cycle := func() {
		if probes := h.sc.ReprobeStalled(); len(probes) == 0 {
			t.Fatal("no probes for a job with pending fresh tasks")
		}
		if rep := h.sc.HandleOffer(j.ID, 1, true); !rep.Refused {
			t.Fatalf("saturated job did not refuse: %+v", rep)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("sched probe round allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestWheelArmStopAllocatesOnce pins the wheel's arm path at its one
// unavoidable object — the timer, which is its own Stop handle — once
// the slots have grown to their steady-state capacity.
func TestWheelArmStopAllocatesOnce(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 64)
	defer w.Stop()
	f := func() {}
	cycle := func() {
		if !w.AfterFunc(20*time.Millisecond, f).Stop() {
			t.Fatal("Stop lost to a 20ms timer")
		}
	}
	// Two trips round the ring at full arming speed: every slot has held
	// as many canceled timers as it ever will between two sweeps.
	for end := time.Now().Add(128 * time.Millisecond); time.Now().Before(end); {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg > 1 {
		t.Fatalf("arm + Stop allocates %.0f/op in steady state, want at most 1", avg)
	}
}

// TestWheelResetAllocatesNothing pins the re-arm path at zero: a timer
// Reset and stopped over and over takes a slot entry per arm and nothing
// else, once the slots have grown to their steady-state capacity.
func TestWheelResetAllocatesNothing(t *testing.T) {
	w := NewTimerWheel(time.Millisecond, 64)
	defer w.Stop()
	tm := w.AfterFunc(20*time.Millisecond, func() {})
	cycle := func() {
		tm.Reset(20 * time.Millisecond)
		if !tm.Stop() {
			t.Fatal("Stop lost to a 20ms timer")
		}
	}
	// Two trips round the ring at full arming speed, as in
	// TestWheelArmStopAllocatesOnce.
	for end := time.Now().Add(128 * time.Millisecond); time.Now().Before(end); {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("Reset + Stop allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestFreshWheelSlotsAllocateNothing: a new wheel's slots are carved
// at construction, so filling every slot of the ring to its room for
// the first time allocates nothing.
func TestFreshWheelSlotsAllocateNothing(t *testing.T) {
	const ring = 64
	w := NewTimerWheel(time.Hour, ring) // never ticks during the test
	defer w.Stop()
	tm := w.AfterFunc(time.Hour, func() {})
	// The wheel's goroutine makes its ticker as it starts: wait until
	// nothing allocates across a millisecond, so that is not counted.
	var before, after runtime.MemStats
	for runtime.ReadMemStats(&before); ; before = after {
		time.Sleep(time.Millisecond)
		if runtime.ReadMemStats(&after); after.Mallocs == before.Mallocs {
			break
		}
	}
	for r := 1; r < wheelSlotRoom; r++ { // the first arm took one slot's first entry
		for k := 0; k < ring; k++ {
			tm.Reset(time.Duration(k) * time.Hour)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("arming every slot of a fresh %d-slot ring up to its room allocated %d times, want 0", ring, n)
	}
}

// TestWheelTickOverLongTimersAllocatesNothing steps the wheel over a
// slot holding 1,000 timers that are rounds away from due: the slot is
// filtered in place, so the tick allocates nothing.
func TestWheelTickOverLongTimersAllocatesNothing(t *testing.T) {
	const ring = 8
	w := NewTimerWheel(time.Hour, ring) // the wheel goroutine never ticks; the test does
	defer w.Stop()
	fired := 0
	for i := 0; i < 1000; i++ {
		w.AfterFunc(time.Hour*ring*10000, func() { fired++ })
	}
	round := func() {
		for i := 0; i < ring; i++ {
			if !w.advance(w.ticks + 1) {
				t.Fatal("advance refused a tick")
			}
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a trip round the ring over 1,000 pending timers allocates %.0f, want 0", avg)
	}
	pending := 0
	for _, slot := range w.slots {
		pending += len(slot)
	}
	if fired != 0 || pending != 1000 {
		t.Fatalf("after 102 rounds of 10,000: %d fired, %d pending; want 0 and 1000", fired, pending)
	}
}
