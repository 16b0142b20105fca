package protocol

import (
	"math/rand"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// The push contract between worker and scheduler cores: a NoDemand
// answer ends a reservation, and the scheduler probes again for every
// unit of demand that appears afterwards. Each test here fails on the
// polling contract it replaced (entries cooled and re-offered, Guideline
// 3 blind to the jobs it just tried, ripe victims never announced).

// onlyOffer returns the single offer in an action list.
func onlyOffer(t *testing.T, acts []WAction) WAction {
	t.Helper()
	var offers []WAction
	for _, a := range acts {
		if a.Kind == WSendOffer {
			offers = append(offers, a)
		}
	}
	if len(offers) != 1 {
		t.Fatalf("got %d offers in %+v, want 1", len(offers), acts)
	}
	return offers[0]
}

func armsRetry(acts []WAction) bool {
	for _, a := range acts {
		if a.Kind == WArmRetry {
			return true
		}
	}
	return false
}

// TestNoDemandDropsReservation: both shapes of NoDemand (a refusal, and
// the answer to a non-refusable offer) purge the (scheduler, job) entry
// and arm no retry for it; the scheduler's next probe brings the entry
// back and kicks a round.
func TestNoDemandDropsReservation(t *testing.T) {
	for _, refused := range []bool{true, false} {
		h := newHarness(t, ModeHopper, 1)
		const job = cluster.JobID(7)
		a := onlyOffer(t, h.w.AddReservation(0, job, 5, 4, cluster.Resources{}))

		acts := reply(t, h.w, a.Seq, Reply{Job: job, From: 0, Refused: refused, NoDemand: true})
		if !h.w.entryFor(0, job).isZero() || h.w.liveEntries() != 0 {
			t.Fatalf("refused=%v: NoDemand left the reservation in the queue", refused)
		}
		if armsRetry(acts) || h.w.retryArmed {
			t.Fatalf("refused=%v: retry armed for a job with no demand: %+v", refused, acts)
		}
		if len(acts) != 0 || h.w.activeRounds != 0 {
			t.Fatalf("refused=%v: round did not end quietly: acts=%+v activeRounds=%d", refused, acts, h.w.activeRounds)
		}
		if acts := h.w.RetryFired(); len(acts) != 0 {
			t.Fatalf("refused=%v: a worker with nothing queued still acts on a retry: %+v", refused, acts)
		}

		b := onlyOffer(t, h.w.AddReservation(0, job, 6, 3, cluster.Resources{}))
		if b.Job != job || !b.Refusable || waitingOn(t, h.w, b.Seq).out.entry.isZero() {
			t.Fatalf("refused=%v: fresh probe did not restore the entry and kick: %+v", refused, b)
		}
	}
}

// TestG3ReachesRefusedSatisfiedJob: a worker whose only reservation
// belongs to a satisfied job that still has work must hand it the spare
// slot non-refusably — Guideline 3 is for exactly the jobs the refusable
// phase just tried.
func TestG3ReachesRefusedSatisfiedJob(t *testing.T) {
	h := newHarness(t, ModeHopper, 1)
	const job = cluster.JobID(8)
	a := onlyOffer(t, h.w.AddReservation(0, job, 5, 4, cluster.Resources{}))
	if !a.Refusable {
		t.Fatalf("first offer not refusable: %+v", a)
	}
	// Satisfied, holding work, and no unsatisfied job anywhere: spare
	// capacity.
	first := waitingOn(t, h.w, a.Seq)
	b := onlyOffer(t, reply(t, h.w, a.Seq, Reply{Job: job, From: 0, Refused: true, VS: 5, RemTask: 4}))
	if b.Job != job || b.Sched != 0 || b.Refusable || waitingOn(t, h.w, b.Seq).out.entry.isZero() {
		t.Fatalf("follow-up offer %+v, want a non-refusable offer to the refused job", b)
	}
	if waitingOn(t, h.w, b.Seq) != first || h.w.activeRounds != 1 {
		t.Fatal("Guideline 3 must continue the round, not start another")
	}
	acts := reply(t, h.w, b.Seq, Reply{HasTask: true, Job: job, From: 0, Spec: true})
	if h.stats.RoundsPlaced != 1 || h.w.activeRounds != 0 || armsRetry(acts) {
		t.Fatalf("hand-over did not settle the round: placed=%d active=%d acts=%+v", h.stats.RoundsPlaced, h.w.activeRounds, acts)
	}
}

// twoOffers returns the two offers a probe draws from a worker with two
// free slots: concurrent rounds, same entry.
func twoOffers(t *testing.T, w *Worker, acts []WAction) (a, b WAction) {
	t.Helper()
	if len(acts) != 2 || acts[0].Kind != WSendOffer || acts[1].Kind != WSendOffer {
		t.Fatalf("want two offers, got %+v", acts)
	}
	ra, rb := waitingOn(t, w, acts[0].Seq), waitingOn(t, w, acts[1].Seq)
	if ra == rb || ra.out.entry != rb.out.entry {
		t.Fatalf("want two rounds offering one entry, got %+v", acts)
	}
	return acts[0], acts[1]
}

// TestStaleRefAfterNoDemandStillResolves: two rounds offer the same
// entry; the first reply says NoDemand and purges it, so the second
// arrives holding a ref to a purged entry. It must resolve as a detached
// entry always has — a task is placed by the reply's From, a JobDone
// ends its round — and leave nothing active or armed.
func TestStaleRefAfterNoDemandStillResolves(t *testing.T) {
	var placedFrom []SchedID
	var st Stats
	cfg := Config{Mode: ModeHopper, NumSchedulers: 3}.WithDefaults()
	w := NewWorker(0, cfg, WorkerEnv{
		Now:       func() float64 { return 0 },
		Rand:      rand.New(rand.NewSource(1)),
		FreeSlots: func() int { return 2 },
		Place:     func(from SchedID, _ Reply) bool { placedFrom = append(placedFrom, from); return true },
		Stats:     &st,
	})
	const job = cluster.JobID(9)
	for _, second := range []Reply{
		{HasTask: true, Job: job, From: 2},
		{Job: job, From: 2, JobDone: true},
	} {
		a, b := twoOffers(t, w, w.AddReservation(2, job, 5, 4, cluster.Resources{}))
		ref := waitingOn(t, w, b.Seq).out.entry
		reply(t, w, a.Seq, Reply{Job: job, From: 2, NoDemand: true})
		if ref.live() != nil {
			t.Fatal("NoDemand left the entry for the second round's ref to find")
		}
		acts := reply(t, w, b.Seq, second)
		if w.activeRounds != 0 || w.liveEntries() != 0 || len(acts) != 0 {
			t.Fatalf("%+v on a stale ref: active=%d live=%d acts=%+v", second, w.activeRounds, w.liveEntries(), acts)
		}
	}
	if len(placedFrom) != 1 || placedFrom[0] != 2 {
		t.Fatalf("stale-ref hand-over placed from %v, want once from scheduler 2 (the reply's From)", placedFrom)
	}
}

// TestOnReplyZeroRefFindsEntryByFromAndJob: the non-refusable offer to a
// refusal's piggybacked unsatisfied job carries no entry ref. When its
// reply lands, the worker must find whatever reservation it holds for
// (reply.From, reply.Job) by then — a hand-over consumes one — and must
// cope with holding none.
func TestOnReplyZeroRefFindsEntryByFromAndJob(t *testing.T) {
	const satisfied, unsat = cluster.JobID(1), cluster.JobID(2)
	for _, reserved := range []bool{true, false} {
		h := newHarness(t, ModeHopper, 1)
		a := onlyOffer(t, h.w.AddReservation(0, satisfied, 5, 4, cluster.Resources{}))
		first := waitingOn(t, h.w, a.Seq)
		b := onlyOffer(t, reply(t, h.w, a.Seq, Reply{
			Job: satisfied, From: 0, Refused: true, HasUnsat: true, UnsatJob: unsat, UnsatVS: 3,
		}))
		if r := waitingOn(t, h.w, b.Seq); b.Refusable || !r.out.entry.isZero() || b.Job != unsat || r != first {
			t.Fatalf("want the round's non-refusable zero-ref offer to job %d, got %+v", unsat, b)
		}
		if reserved {
			// Lands while the offer is in flight; the round holds the only slot.
			for i := 0; i < 2; i++ {
				if acts := h.w.AddReservation(0, unsat, 3, 2, cluster.Resources{}); len(acts) != 0 {
					t.Fatalf("reservation with no free round acted: %+v", acts)
				}
			}
		}
		h.slots = 0 // the hand-over takes the slot
		reply(t, h.w, b.Seq, Reply{HasTask: true, Job: unsat, From: 0})
		if h.stats.RoundsPlaced != 1 || h.w.activeRounds != 0 {
			t.Fatalf("reserved=%v: placed %d rounds, %d still active", reserved, h.stats.RoundsPlaced, h.w.activeRounds)
		}
		e := h.w.find(0, unsat)
		if reserved && (e == nil || e.count != 1) {
			t.Fatalf("hand-over on a zero ref did not consume a reservation of (0, %d): %+v", unsat, e)
		}
		if !reserved && e != nil {
			t.Fatalf("hand-over for an unreserved job grew an entry: %+v", e)
		}
	}
}

// runningJob admits a job of n tasks, hands every task out and starts
// its original copy at time 0 with the given duration, reporting each
// placement as an adapter does.
func runningJob(t *testing.T, h *harness, id cluster.JobID, n int, mean, dur float64) *cluster.Job {
	t.Helper()
	j := mkJob(id, n, mean)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])
	for i := 0; i < n; i++ {
		rep := h.sc.HandleOffer(j.ID, cluster.MachineID(i%4), false)
		if !rep.HasTask || rep.Spec {
			t.Fatalf("hand-out %d: %+v", i, rep)
		}
		rep.Task.StartCopy(0, cluster.MachineID(i%4), false, dur)
		h.sc.CopyPlaced(rep.Task)
	}
	return j
}

// TestScanSpecAnnouncesRipeVictims is the scheduler's half of the
// contract: a running copy crossing its observation delay turns a job
// that answers NoDemand into one that would hand out a racing copy, and
// no message marks that instant — so the next scan must send probes.
// LATE has no completion history here and flags nothing (projected total
// below twice the phase mean), so the probes can only be the victim's.
func TestScanSpecAnnouncesRipeVictims(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := runningJob(t, h, 70, 2, 1.0, 1.8)

	h.clk.now = 0.1 // younger than the observation delay: nothing to race
	if probes := h.sc.ScanSpec(); len(probes) != 0 {
		t.Fatalf("scan announced %d probes before any copy was observable", len(probes))
	}
	if rep := h.sc.HandleOffer(j.ID, 0, false); !rep.NoDemand {
		t.Fatalf("job with nothing to run answered %+v", rep)
	}

	h.clk.now = 0.5 // observable, 1.3 s left against a 1 s fresh copy
	// Said NoDemand and has not probed since: stays quiet, even though a
	// victim search would now find one.
	if rep := h.sc.HandleOffer(j.ID, 1, false); !rep.NoDemand {
		t.Fatalf("quiet job handed out unannounced work: %+v", rep)
	}
	probes := h.sc.ScanSpec()
	if len(probes) == 0 {
		t.Fatal("ripe victims not announced: workers that were told NoDemand would never learn of them")
	}
	for _, p := range probes {
		if p.Job != j.ID {
			t.Fatalf("probe for job %d, want %d", p.Job, j.ID)
		}
	}
	for i := 0; i < 2; i++ {
		rep := h.sc.HandleOffer(j.ID, cluster.MachineID(2+i), false)
		if !rep.HasTask || !rep.Spec {
			t.Fatalf("announced victim %d not handed out: %+v", i, rep)
		}
		rep.Task.StartCopy(h.clk.now, cluster.MachineID(2+i), true, 1)
		h.sc.CopyPlaced(rep.Task)
	}
	if again := h.sc.ScanSpec(); len(again) != 0 {
		t.Fatalf("victims at the copy cap announced again: %d probes", len(again))
	}
	if h.stats.SilentDemand != 0 {
		t.Fatalf("SilentDemand = %d", h.stats.SilentDemand)
	}
}

// TestSparrowScanAnnouncesPolicyWantsOnly: the baselines have no
// capacity-driven speculation; their scan must not start announcing
// victims the detection policy did not flag.
func TestSparrowScanAnnouncesPolicyWantsOnly(t *testing.T) {
	h := newHarness(t, ModeSparrowSRPT, 2)
	j := mkJob(71, 2, 1.0)
	h.sc.Admit(j)
	h.sc.PhaseRunnable(j.Phases[0])
	for i := 0; i < 2; i++ {
		rep := h.sc.HandleGetTask(j.ID, cluster.MachineID(i))
		if !rep.HasTask {
			t.Fatalf("pull %d: %+v", i, rep)
		}
		rep.Task.StartCopy(0, cluster.MachineID(i), false, 1.8)
		h.sc.CopyPlaced(rep.Task)
	}
	h.clk.now = 0.5 // the same ripe victims TestScanSpecAnnouncesRipeVictims announces
	if probes := h.sc.ScanSpec(); len(probes) != 0 {
		t.Fatalf("Sparrow scan sent %d probes for victims LATE did not flag", len(probes))
	}
}

// TestSilentDemandCounts: demand that reaches a quiet job without
// probes is what the counter is for.
func TestSilentDemandCounts(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := runningJob(t, h, 72, 1, 1.0, 5)
	if rep := h.sc.HandleOffer(j.ID, 0, false); !rep.NoDemand {
		t.Fatalf("want NoDemand, got %+v", rep)
	}
	// A bug's worth of demand: queued behind the scheduler's back.
	h.clk.now = 1
	h.sc.jobs[j.ID].AddWant(j.Phases[0].Tasks[0])
	if rep := h.sc.HandleOffer(j.ID, 1, false); !rep.HasTask {
		t.Fatalf("want the planted task, got %+v", rep)
	}
	if h.stats.SilentDemand != 1 {
		t.Fatalf("SilentDemand = %d, want 1", h.stats.SilentDemand)
	}
}

// TestReprobeStalledCoversWants: a job whose only demand is a
// speculation want must be refreshed like one with unlaunched originals —
// AddWant never re-probes a task already flagged, so a want whose probes
// were all lost has no other way back to a worker.
func TestReprobeStalledCoversWants(t *testing.T) {
	h := newHarness(t, ModeHopper, 2)
	j := runningJob(t, h, 73, 2, 1.0, 5)
	if probes := h.sc.ReprobeStalled(); len(probes) != 0 {
		t.Fatalf("refresh probed for a job with no demand: %d", len(probes))
	}
	h.clk.now = 1
	if first := h.sc.ScanSpec(); len(first) == 0 {
		t.Fatal("no want announced")
	}
	if again := h.sc.ScanSpec(); len(again) != 0 {
		t.Fatalf("scan re-probed standing wants: %d", len(again))
	}
	probes := h.sc.ReprobeStalled()
	if len(probes) == 0 {
		t.Fatal("refresh skipped a job whose only demand is speculative")
	}
	for _, p := range probes {
		if p.Job != j.ID {
			t.Fatalf("probe for job %d, want %d", p.Job, j.ID)
		}
	}
	// A want that went stale (its task reached the copy cap) is not
	// demand.
	for _, task := range j.Phases[0].Tasks {
		task.StartCopy(h.clk.now, 3, true, 1)
		h.sc.CopyPlaced(task)
	}
	if probes := h.sc.ReprobeStalled(); len(probes) != 0 {
		t.Fatalf("refresh probed for %d stale wants", len(probes))
	}
}

// TestLoadCacheEntriesSpendNotExpire: a cached report of f free slots
// aims f probes however old it is, and none after that until a fresher
// report replaces it.
func TestLoadCacheEntriesSpendNotExpire(t *testing.T) {
	h := newHarness(t, ModeLoadCache, 2)
	task := mkJob(74, 1, 1.0).Phases[0].Tasks[0]
	p := NewLoadCachePolicy(1)
	env := &h.sc.env
	const cached = cluster.MachineID(40) // outside the harness's random range [0, 4)
	p.ObserveLoad(cached, 2, cluster.Resources{}, 0)

	h.clk.now = 3600 // an hour after the report
	dst := p.Targets(env, task, 3, nil)
	if len(dst) != 3 || dst[0] != cached || dst[1] != cached || dst[2] == cached {
		t.Fatalf("targets %v, want the cached worker twice then a random fill", dst)
	}
	if p.CacheHits != 2 || p.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2 and 1", p.CacheHits, p.CacheMisses)
	}
	if dst = p.Targets(env, task, 1, dst[:0]); dst[0] == cached {
		t.Fatal("a spent entry still aims probes")
	}
	p.ObserveLoad(cached, 1, cluster.Resources{}, h.clk.now)
	if dst = p.Targets(env, task, 1, dst[:0]); dst[0] != cached {
		t.Fatalf("fresher report ignored: %v", dst)
	}
}
