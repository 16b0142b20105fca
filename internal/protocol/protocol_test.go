package protocol

import (
	"math/rand"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// testClock is a settable manual clock.
type testClock struct{ now float64 }

func (c *testClock) Now() float64 { return c.now }

// mkJob builds a single-phase job with runnable root phase.
func mkJob(id cluster.JobID, n int, mean float64) *cluster.Job {
	ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	j := cluster.NewJob(id, "", 0, []*cluster.Phase{ph})
	ph.MarkRunnable()
	return j
}

// harness bundles a sched and worker core over a manual clock.
type harness struct {
	clk   *testClock
	stats Stats
	sc    *Sched
	w     *Worker
	slots int
}

func newHarness(t *testing.T, mode Mode, slots int) *harness {
	t.Helper()
	h := &harness{clk: &testClock{}, slots: slots}
	cfg := Config{Mode: mode, NumSchedulers: 3}.WithDefaults()
	rng := rand.New(rand.NewSource(99))
	h.sc = NewSched(0, cfg, SchedEnv{
		Now:        h.clk.Now,
		Rand:       rng,
		TotalSlots: func() int { return 8 },
		RandomWorkers: func(r *rand.Rand, n int, scratch []cluster.MachineID) []cluster.MachineID {
			out := scratch[:0]
			for i := 0; i < n; i++ {
				out = append(out, cluster.MachineID(r.Intn(4)))
			}
			return out
		},
		Stats: &h.stats,
	})
	h.w = NewWorker(0, cfg, WorkerEnv{
		Now:       h.clk.Now,
		Rand:      rng,
		FreeSlots: func() int { return h.slots },
		Place:     func(SchedID, Reply) bool { return true },
		Stats:     &h.stats,
	})
	return h
}

// entryFor stamps the worker's live entry for a (scheduler, job) pair;
// the zero ref when it holds none.
func (w *Worker) entryFor(sched SchedID, job cluster.JobID) entryRef {
	if e := w.find(sched, job); e != nil {
		return refOf(e)
	}
	return entryRef{}
}

// waitingOn returns the round waiting on offer seq; the test fails if
// none is.
func waitingOn(t *testing.T, w *Worker, seq uint64) *round {
	t.Helper()
	r := w.nextOffer(seq-1, seq)
	if r == nil {
		t.Fatalf("no round is waiting on offer %d", seq)
	}
	return r
}

// reply answers offer seq, which must be out.
func reply(t *testing.T, w *Worker, seq uint64, rep Reply) []WAction {
	t.Helper()
	acts, ok := w.OnReply(seq, rep)
	if !ok {
		t.Fatalf("offer %d is not waiting for a reply", seq)
	}
	return acts
}

func TestEntryAggregation(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(1, 4, 1.0)
	h.sc.Admit(j)

	h.w.AddReservation(0, j.ID, 5.0, 4, cluster.Resources{})
	h.w.AddReservation(0, j.ID, 6.0, 3, cluster.Resources{})
	if len(h.w.entries) != 1 {
		t.Fatalf("entries = %d, want 1 aggregated", len(h.w.entries))
	}
	e := h.w.entries[0]
	if e.count < 1 || e.vs != 6.0 || e.remTasks != 3 {
		t.Fatalf("entry not updated: %+v", e)
	}
}

func TestAddReservationEmitsOffer(t *testing.T) {
	h := newHarness(t, ModeHopper, 1)
	j := mkJob(1, 4, 1.0)
	h.sc.Admit(j)

	acts := h.w.AddReservation(0, j.ID, 5.0, 4, cluster.Resources{})
	var offers int
	for _, a := range acts {
		if a.Kind == WSendOffer {
			offers++
			if !a.Refusable || a.GetTask || waitingOn(t, h.w, a.Seq).out.entry.isZero() {
				t.Fatalf("malformed Hopper offer action: %+v", a)
			}
			if a.Sched != 0 || a.Job != j.ID {
				t.Fatalf("offer aimed at (%d, %d)", a.Sched, a.Job)
			}
		}
	}
	if offers != 1 {
		t.Fatalf("got %d offers, want 1 (one free slot, one entry)", offers)
	}
	if h.stats.RoundsStarted != 1 {
		t.Fatalf("RoundsStarted = %d, want 1", h.stats.RoundsStarted)
	}
}

func TestPurgeRemovesEntry(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(2, 2, 1.0)
	h.sc.Admit(j)
	h.w.AddReservation(0, j.ID, 3.0, 2, cluster.Resources{})

	if h.w.liveEntries() != 1 {
		t.Fatalf("liveEntries = %d, want 1", h.w.liveEntries())
	}
	ref := h.w.entryFor(0, j.ID)
	if ref.isZero() {
		t.Fatal("entryFor missed a live entry")
	}
	for _, e := range append([]*Entry(nil), h.w.entries...) {
		h.w.purge(e)
	}
	if h.w.liveEntries() != 0 || !h.w.entryFor(0, j.ID).isZero() {
		t.Fatal("purge left residue")
	}
	if ref.live() != nil {
		t.Fatal("pre-purge ref still resolves; generation not bumped")
	}
}

func TestEntryPoolRecyclesWithFreshGeneration(t *testing.T) {
	h := newHarness(t, ModeHopper, 0) // no slots: reservations queue quietly
	j := mkJob(3, 2, 1.0)
	h.sc.Admit(j)

	h.w.AddReservation(0, j.ID, 3.0, 2, cluster.Resources{})
	old := h.w.entryFor(0, j.ID)
	h.w.purge(old.live())
	h.w.compact() // force the recycle regardless of thresholds

	// The recycled object must come back as a logically fresh entry: new
	// generation (stale refs and tried marks cannot match), new seq.
	h.w.AddReservation(0, j.ID, 9.0, 1, cluster.Resources{})
	fresh := h.w.entryFor(0, j.ID)
	if fresh.isZero() {
		t.Fatal("no entry after re-reservation")
	}
	if old.live() != nil {
		t.Fatal("stale ref resolves against the recycled entry")
	}
	e := fresh.live()
	if e.vs != 9.0 || e.count != 1 || e.remTasks != 1 {
		t.Fatalf("recycled entry kept stale fields: %+v", e)
	}
	r := &round{w: h.w, tried: []triedRef{{e: e, gen: e.gen - 1}}}
	if r.wasTried(e) {
		t.Fatal("tried mark from a previous generation matched")
	}
}

func TestCooldownSkipsEntries(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	e := h.w.newEntry(0, 3)
	e.count, e.vs = 1, 2

	e.coolTill = h.clk.now + 10
	if h.w.hasOfferableWork() {
		t.Fatal("cooling entry counted as offerable")
	}
	if !h.w.hasAnyReservations() {
		t.Fatal("cooling entry should still count as a reservation")
	}
	r := &round{w: h.w}
	if r.pickMinVS() != nil {
		t.Fatal("pickMinVS returned a cooling entry")
	}
	e.coolTill = 0
	if !h.w.hasOfferableWork() || r.pickMinVS() != e {
		t.Fatal("entry not offerable after cooldown cleared")
	}
}

func TestPickMinVSOrdersByVirtualSize(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	for i, vs := range []float64{9, 3, 6} {
		e := h.w.newEntry(0, cluster.JobID(10+i))
		e.count, e.vs = 1, vs
	}
	r := &round{w: h.w}
	first := r.pickMinVS()
	if first == nil || first.vs != 3 {
		t.Fatalf("first pick vs=%v, want 3", first.vs)
	}
	r.markTried(first)
	second := r.pickMinVS()
	if second == nil || second.vs != 6 {
		t.Fatalf("second pick vs=%v, want 6", second.vs)
	}
}

func TestPickSparrowFIFOAndSRPT(t *testing.T) {
	for _, mode := range []Mode{ModeSparrow, ModeSparrowSRPT} {
		h := newHarness(t, mode, 2)
		// seq 0 has MORE remaining tasks; seq 1 fewer.
		specs := []struct {
			rem int
			seq int64
		}{{10, 0}, {2, 1}}
		for i, spec := range specs {
			e := h.w.newEntry(0, cluster.JobID(20+i))
			e.count, e.remTasks = 1, spec.rem
			e.seq = spec.seq
		}
		r := &round{w: h.w}
		got := r.pickSparrow()
		if mode == ModeSparrow && got.seq != 0 {
			t.Fatalf("Sparrow should pick FIFO head, got seq %d", got.seq)
		}
		if mode == ModeSparrowSRPT && got.remTasks != 2 {
			t.Fatalf("Sparrow-SRPT should pick fewest remaining, got %d", got.remTasks)
		}
	}
}

// TestSparrowReplyOnPurgedRef: two concurrent pulls consume one entry's
// two reservations; the first reply says JobDone and purges it, so the
// second arrives on a purged ref. The one reply entry point must settle
// it by the Sparrow rules — place from the reply's From, or pull on and
// find nothing — and leave no round active.
func TestSparrowReplyOnPurgedRef(t *testing.T) {
	for _, mode := range []Mode{ModeSparrow, ModeSparrowSRPT} {
		for _, second := range []Reply{
			{HasTask: true, Job: 7, From: 2},
			{Job: 7, From: 2},
		} {
			var placedFrom []SchedID
			var st Stats
			w := NewWorker(0, Config{Mode: mode}.WithDefaults(), WorkerEnv{
				Now:       func() float64 { return 0 },
				Rand:      rand.New(rand.NewSource(1)),
				FreeSlots: func() int { return 2 },
				Place:     func(from SchedID, _ Reply) bool { placedFrom = append(placedFrom, from); return true },
				Stats:     &st,
			})
			// Copy: the worker reuses one action buffer across calls.
			acts := append([]WAction(nil), w.AddReservation(2, 7, 0, 4, cluster.Resources{})...)
			acts = append(acts, w.AddReservation(2, 7, 0, 4, cluster.Resources{})...)
			var pulls []WAction
			for _, a := range acts {
				if a.Kind == WSendOffer {
					if !a.GetTask || waitingOn(t, w, a.Seq).out.entry.isZero() {
						t.Fatalf("%v: malformed pull %+v", mode, a)
					}
					pulls = append(pulls, a)
				}
			}
			if len(pulls) != 2 || waitingOn(t, w, pulls[0].Seq) == waitingOn(t, w, pulls[1].Seq) {
				t.Fatalf("%v: want two rounds pulling one entry, got %+v", mode, acts)
			}
			ref := waitingOn(t, w, pulls[1].Seq).out.entry
			reply(t, w, pulls[0].Seq, Reply{Job: 7, From: 2, JobDone: true})
			if ref.live() != nil {
				t.Fatalf("%v: JobDone left the entry for the second pull's ref to find", mode)
			}
			reply(t, w, pulls[1].Seq, second)
			if w.activeRounds != 0 || w.liveEntries() != 0 {
				t.Fatalf("%v %+v on a purged ref: active=%d live=%d", mode, second, w.activeRounds, w.liveEntries())
			}
			if want := second.HasTask; (len(placedFrom) == 1 && placedFrom[0] == 2) != want {
				t.Fatalf("%v %+v: placed from %v", mode, second, placedFrom)
			}
		}
	}
}

func TestSchedulerRefusesAtVirtualSize(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(30, 4, 1.0)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])
	d := h.sc.jobs[j.ID]

	// Drain the job's fresh demand and saturate occupancy past effVS.
	d.pendingFresh = cluster.TaskDeque{}
	d.Occupied = 1000
	rep := h.sc.HandleOffer(j.ID, 0, true)
	if !rep.Refused {
		t.Fatal("saturated job accepted a refusable offer")
	}
	// Non-refusable offers bypass the virtual-size test but still need a
	// task; with none pending they report no-demand.
	rep = h.sc.HandleOffer(j.ID, 0, false)
	if rep.HasTask || !rep.NoDemand {
		t.Fatalf("expected no-demand reply, got %+v", rep)
	}
}

func TestSchedulerHandsOutFreshThenRefuses(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(31, 2, 1.0)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])

	got := 0
	for i := 0; i < 10; i++ {
		rep := h.sc.HandleOffer(j.ID, cluster.MachineID(i%4), true)
		if !rep.HasTask {
			break
		}
		if rep.Task == nil || rep.Job != j.ID || rep.Phase != 0 {
			t.Fatalf("hand-out reply malformed: %+v", rep)
		}
		got++
	}
	if got != 2 {
		t.Fatalf("handed out %d fresh tasks, want 2", got)
	}
}

func TestUnknownJobOfferPurges(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	rep := h.sc.HandleOffer(999, 0, true)
	if !rep.JobDone {
		t.Fatal("offer for unknown job should report jobDone")
	}
}

func TestSmallestUnsatisfiedPrefersSmallJob(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	big := mkJob(40, 50, 1.0)
	small := mkJob(41, 3, 1.0)
	for _, j := range []*cluster.Job{big, small} {
		h.sc.Admit(j)
		h.sc.PhaseRunnable(j.Phases[0])
	}
	var rep Reply
	h.sc.smallestUnsatisfied(&rep)
	if !rep.HasUnsat || rep.UnsatJob != small.ID {
		t.Fatalf("smallest unsatisfied = %+v, want job %d", rep, small.ID)
	}
}

func TestRetryBackoffDoublesAndResets(t *testing.T) {
	h := newHarness(t, ModeHopper, 1)
	// An entry that is cooling: kick finds reservations but nothing
	// offerable, so it arms a retry with the current backoff.
	e := h.w.newEntry(0, 7)
	e.count, e.vs, e.coolTill = 1, 2, 100

	delays := []float64{}
	for i := 0; i < 4; i++ {
		for _, a := range h.w.RetryFired() {
			if a.Kind == WArmRetry {
				delays = append(delays, a.Delay)
			}
		}
	}
	if len(delays) != 4 {
		t.Fatalf("got %d retry arms, want 4", len(delays))
	}
	if delays[0] != retryBackoffMin || delays[1] != 2*retryBackoffMin {
		t.Fatalf("backoff not doubling: %v", delays)
	}
	if last := delays[len(delays)-1]; last > retryBackoffMax {
		t.Fatalf("backoff %v exceeds max %v", last, retryBackoffMax)
	}
	// A successful placement resets the backoff: the retry the follow-up
	// kick arms goes back to the minimum delay.
	h.w.backoff = retryBackoffMax
	h.w.activeRounds = 1
	h.w.begin()
	h.w.endRound(h.w.newRound(), true)
	reArmed := false
	for _, a := range h.w.acts() {
		if a.Kind == WArmRetry {
			reArmed = true
			if a.Delay != retryBackoffMin {
				t.Fatalf("post-placement retry delay %v, want reset to %v", a.Delay, retryBackoffMin)
			}
		}
	}
	if !reArmed {
		t.Fatal("no retry armed after placement with reservations still queued")
	}
}

// TestRetryBackoffJitterStaysWithinCap pins the jittered backoff: delays
// spread (workers desynchronize after a mass-loss event) but never leave
// [RetryBackoffMin, RetryBackoffMax] — the max is a hard cap even with
// jitter applied on top of a saturated doubling accumulator.
func TestRetryBackoffJitterStaysWithinCap(t *testing.T) {
	cfg := Config{Mode: ModeHopper, NumSchedulers: 3, RetryJitter: 0.5}.WithDefaults()
	var st Stats
	w := NewWorker(0, cfg, WorkerEnv{
		Now:       func() float64 { return 0 },
		Rand:      rand.New(rand.NewSource(7)),
		FreeSlots: func() int { return 1 },
		Place:     func(SchedID, Reply) bool { return true },
		Stats:     &st,
	})
	e := w.newEntry(0, 7)
	e.count, e.vs, e.coolTill = 1, 2, 100 // cooling: retries arm, no offers

	var delays []float64
	for i := 0; i < 40; i++ {
		for _, a := range w.RetryFired() {
			if a.Kind == WArmRetry {
				delays = append(delays, a.Delay)
			}
		}
	}
	if len(delays) != 40 {
		t.Fatalf("got %d retry arms, want 40", len(delays))
	}
	varied := false
	for i, d := range delays {
		if d < retryBackoffMin || d > retryBackoffMax {
			t.Fatalf("delay[%d] = %v outside [%v, %v]", i, d, retryBackoffMin, retryBackoffMax)
		}
		if i > 0 && d != delays[i-1] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jittered delays never varied; jitter draw is dead code")
	}
	if w.backoff != retryBackoffMax {
		t.Fatalf("doubling accumulator = %v, want capped at %v", w.backoff, retryBackoffMax)
	}
}

func TestOccupancyLeakDetection(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(50, 2, 1.0)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])
	rep := h.sc.HandleOffer(j.ID, 0, true)
	if !rep.HasTask {
		t.Fatal("expected a task")
	}
	// Finish the job without settling occupancy: leak must be counted.
	h.sc.JobDone(j)
	if h.stats.OccupancyLeaks != 1 {
		t.Fatalf("OccupancyLeaks = %d, want 1", h.stats.OccupancyLeaks)
	}
}

func TestPlacementFailedRollsBackOccupancy(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := mkJob(51, 2, 1.0)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])
	if rep := h.sc.HandleOffer(j.ID, 0, true); !rep.HasTask {
		t.Fatal("expected a task")
	}
	if h.sc.Occupied(j.ID) != 1 {
		t.Fatalf("occupied = %d, want 1", h.sc.Occupied(j.ID))
	}
	h.sc.PlacementFailed(j.ID)
	if h.sc.Occupied(j.ID) != 0 {
		t.Fatalf("occupied = %d after rollback, want 0", h.sc.Occupied(j.ID))
	}
}
