package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// An offer's life is the worker core's: it is numbered when its round
// sends it and ends exactly once — answered (OnReply), overdue
// (ExpireOffers) or orphaned (DropSched). These tests hold the core to
// that with no adapter in the picture.

// offerHarness is one worker core over a manual clock and a slot count
// the test moves by hand.
type offerHarness struct {
	clk   testClock
	slots int
	stats Stats
	w     *Worker
}

func newOfferHarness(mode Mode, seed int64, place func() bool) *offerHarness {
	h := &offerHarness{}
	h.w = NewWorker(0, Config{Mode: mode, NumSchedulers: 3}.WithDefaults(), WorkerEnv{
		Now:       h.clk.Now,
		Rand:      rand.New(rand.NewSource(seed)),
		FreeSlots: func() int { return h.slots },
		Place:     func(SchedID, Reply) bool { return place() },
		Stats:     &h.stats,
	})
	return h
}

// twoRoundsOut puts two rounds in negotiation, one second apart: offer 1
// to scheduler 0 for job 1 at time 0, offer 2 to scheduler 1 for job 2
// (the smaller one by then) at time 1.
func twoRoundsOut(t *testing.T) (h *offerHarness, first, second *round) {
	t.Helper()
	h = newOfferHarness(ModeHopper, 1, func() bool { return true })
	h.slots = 1
	a := onlyOffer(t, h.w.AddReservation(0, 1, 5, 4, cluster.Resources{}))
	h.clk.now, h.slots = 1, 2
	b := onlyOffer(t, h.w.AddReservation(1, 2, 3, 4, cluster.Resources{}))
	if a.Seq != 1 || a.Sched != 0 || b.Seq != 2 || b.Sched != 1 {
		t.Fatalf("want offer 1 to scheduler 0 and offer 2 to scheduler 1, got %+v and %+v", a, b)
	}
	return h, waitingOn(t, h.w, 1), waitingOn(t, h.w, 2)
}

// TestDropSchedResolvesOffersInFlight: two rounds out to two schedulers,
// one scheduler dropped. Its round resumes by itself — here it goes on to
// the other scheduler's job — the other round's offer stays out, the
// dropped offer's number is dead, and answering what is left closes
// everything: DropSched alone leaves activeRounds consistent.
func TestDropSchedResolvesOffersInFlight(t *testing.T) {
	h, first, second := twoRoundsOut(t)
	acts, lost := h.w.DropSched(0)
	if len(lost) != 1 || lost[0].Job != 1 || lost[0].Count != 1 {
		t.Fatalf("lost inventory %+v, want job 1's one reservation", lost)
	}
	c := onlyOffer(t, acts)
	if c.Seq != 3 || c.Sched != 1 || c.Job != 2 || waitingOn(t, h.w, 3) != first {
		t.Fatalf("the orphaned round did not move on to scheduler 1's job: %+v", c)
	}
	if waitingOn(t, h.w, 2) != second || h.w.OffersOut() != 2 {
		t.Fatalf("the other scheduler's offer was disturbed: %d offers out", h.w.OffersOut())
	}
	if acts, ok := h.w.OnReply(1, Reply{HasTask: true, Job: 1, From: 0}); ok || len(acts) != 0 {
		t.Fatalf("a reply to the dropped scheduler's offer was accepted: %+v", acts)
	}
	reply(t, h.w, 2, Reply{Job: 2, From: 1, JobDone: true})
	reply(t, h.w, 3, Reply{Job: 2, From: 1, JobDone: true})
	if h.w.activeRounds != 0 || h.w.OffersOut() != 0 || h.w.liveEntries() != 0 || h.w.retryArmed {
		t.Fatalf("leak: %d rounds active, %d offers out, %d entries, retry armed %v",
			h.w.activeRounds, h.w.OffersOut(), h.w.liveEntries(), h.w.retryArmed)
	}
	if h.stats.OfferTimeouts != 0 {
		t.Fatalf("a dropped scheduler counted as %d offer timeouts", h.stats.OfferTimeouts)
	}

	// Both rounds waiting on the dropped scheduler, nothing else queued:
	// both end, in one call.
	h = newOfferHarness(ModeHopper, 1, func() bool { return true })
	h.slots = 2
	twoOffers(t, h.w, h.w.AddReservation(2, 9, 5, 4, cluster.Resources{}))
	if acts, _ := h.w.DropSched(2); len(acts) != 0 || h.w.activeRounds != 0 {
		t.Fatalf("dropping the only scheduler left %d rounds active and actions %+v", h.w.activeRounds, acts)
	}
}

// TestExpireOffersInSendOrder: only offers sent at or before the cutoff
// expire, the older first, each counted and resumed as if answered
// empty-handed; what the resumed rounds send is not up for expiry in the
// same call; OldestOffer follows what is left.
func TestExpireOffersInSendOrder(t *testing.T) {
	h, first, second := twoRoundsOut(t)
	if at, ok := h.w.OldestOffer(); !ok || at != 0 {
		t.Fatalf("OldestOffer = %v, %v; want offer 1's send time 0", at, ok)
	}
	if acts := h.w.ExpireOffers(-0.5); len(acts) != 0 || h.stats.OfferTimeouts != 0 {
		t.Fatalf("a cutoff before every offer expired something: %+v", acts)
	}

	h.clk.now = 2
	c := onlyOffer(t, h.w.ExpireOffers(0.5)) // offer 1 only
	if h.stats.OfferTimeouts != 1 || c.Seq != 3 || c.Job != 2 || waitingOn(t, h.w, 3) != first {
		t.Fatalf("cutoff 0.5: %d timeouts, follow-up %+v; want offer 1 abandoned and its round on to job 2", h.stats.OfferTimeouts, c)
	}
	if _, ok := h.w.OnReply(1, Reply{Job: 1, From: 0}); ok {
		t.Fatal("the abandoned offer still takes a reply")
	}
	if e := h.w.find(0, 1); e == nil || e.coolTill <= h.clk.now {
		t.Fatalf("the unanswered entry was not cooled like an empty-handed answer: %+v", e)
	}
	if at, ok := h.w.OldestOffer(); !ok || at != 1 {
		t.Fatalf("OldestOffer = %v, %v; want offer 2's send time 1", at, ok)
	}

	// Offers 2 (sent at 1) and 3 (sent at 2) are both overdue at cutoff 3,
	// and so would be anything sent now — which must wait for a later
	// call. Each resumed round has a job it has not tried: the second
	// round job 1 (cool again by now), the first a job 3 that turned up
	// meanwhile. The older offer's round goes first.
	if acts := h.w.AddReservation(2, 3, 9, 4, cluster.Resources{}); len(acts) != 0 {
		t.Fatalf("a reservation with both rounds busy acted: %+v", acts)
	}
	h.clk.now = 3
	acts := h.w.ExpireOffers(3)
	if h.stats.OfferTimeouts != 3 || len(acts) != 2 || acts[0].Seq != 4 || acts[1].Seq != 5 {
		t.Fatalf("cutoff 3: %d timeouts, actions %+v; want offers 2 and 3 abandoned and two follow-ups", h.stats.OfferTimeouts, acts)
	}
	if waitingOn(t, h.w, 4) != second || waitingOn(t, h.w, 5) != first {
		t.Fatal("overdue offers were not resumed oldest first")
	}
	if h.w.OffersOut() != 2 {
		t.Fatalf("%d offers out, want the two follow-ups", h.w.OffersOut())
	}
}

// coreState renders everything a rejected reply must leave alone.
func coreState(h *offerHarness) string {
	w := h.w
	s := fmt.Sprintf("rounds=%d seq=%d retry=%v backoff=%v dead=%d stats=%+v slots=%d |",
		w.activeRounds, w.offerSeq, w.retryArmed, w.backoff, w.deadEntries, h.stats, h.slots)
	for _, e := range w.entries {
		s += fmt.Sprintf(" %d/%d:%d,%v,%v,%d", e.Sched, e.Job, e.count, e.coolTill, e.dead, e.gen)
	}
	for _, r := range w.active[:w.activeRounds] {
		s += fmt.Sprintf(" r%d:%d,%v,%d", r.out.seq, r.refusals, r.g3, len(r.tried))
	}
	return s
}

// TestOfferTableProperty drives one worker core through random
// interleavings of everything that can happen to an offer, in every mode,
// against a model that is just the set of offers the core said it sent
// and has not since settled.
func TestOfferTableProperty(t *testing.T) {
	modes := []Mode{ModeHopper, ModeSparrow, ModeSparrowSRPT, ModeLoadCache}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newOfferHarness(modes[seed%int64(len(modes))], seed, func() bool { return rng.Intn(10) > 0 })
		h.slots = 2

		type sent struct {
			sched SchedID
			job   cluster.JobID
			at    float64
		}
		out := map[uint64]sent{} // offers out, by the model
		var settled []uint64     // numbers that once were
		var lastSeq uint64
		retryArmed := false

		// absorb applies an action list to the model.
		absorb := func(op string, acts []WAction) {
			for _, a := range acts {
				switch a.Kind {
				case WSendOffer:
					if a.Seq <= lastSeq {
						t.Fatalf("seed %d %s: offer numbered %d after %d", seed, op, a.Seq, lastSeq)
					}
					lastSeq = a.Seq
					out[a.Seq] = sent{a.Sched, a.Job, h.clk.now}
				case WArmRetry:
					if retryArmed {
						t.Fatalf("seed %d %s: retry armed twice", seed, op)
					}
					retryArmed = true
				case WCancelRetry:
					retryArmed = false
				}
			}
		}
		settle := func(seq uint64) {
			delete(out, seq)
			settled = append(settled, seq)
		}
		// check holds the core to the model after every operation.
		check := func(op string) {
			w := h.w
			if w.OffersOut() != len(out) || w.activeRounds != len(out) || len(out) > maxConcurrentRounds {
				t.Fatalf("seed %d %s: %d offers out and %d rounds active by the core, %d offers out by the model",
					seed, op, w.OffersOut(), w.activeRounds, len(out))
			}
			for seq, o := range out {
				r := w.nextOffer(seq-1, seq)
				if r == nil || r.out.sched != o.sched || r.out.job != o.job || r.out.sentAt != o.at {
					t.Fatalf("seed %d %s: no round is waiting on offer %d %+v", seed, op, seq, o)
				}
			}
			if w.retryArmed != retryArmed {
				t.Fatalf("seed %d %s: core's retry flag %v, actions say %v", seed, op, w.retryArmed, retryArmed)
			}
			if w.deadEntries > w.liveEntries() {
				t.Fatalf("seed %d %s: %d tombstones over %d live entries", seed, op, w.deadEntries, w.liveEntries())
			}
		}
		anyOut := func() uint64 {
			var seqs []uint64
			for seq := uint64(1); seq <= lastSeq; seq++ {
				if _, ok := out[seq]; ok {
					seqs = append(seqs, seq)
				}
			}
			return seqs[rng.Intn(len(seqs))]
		}
		randomReply := func(o sent) Reply {
			rep := Reply{Job: o.job, From: o.sched, VS: float64(rng.Intn(9)), RemTask: rng.Intn(5)}
			switch rng.Intn(6) {
			case 0:
				rep.HasTask = true
			case 1:
				rep.Refused = true
			case 2:
				rep.Refused, rep.HasUnsat = true, true
				rep.UnsatJob, rep.UnsatVS = cluster.JobID(1+rng.Intn(6)), float64(1+rng.Intn(9))
			case 3:
				rep.NoDemand, rep.Refused = true, rng.Intn(2) == 0
			case 4:
				rep.JobDone = true
			}
			return rep
		}
		rejected := func(op string, seq uint64) {
			before := coreState(h)
			acts, ok := h.w.OnReply(seq, randomReply(sent{SchedID(rng.Intn(3)), cluster.JobID(1 + rng.Intn(6)), 0}))
			if ok || len(acts) != 0 || coreState(h) != before {
				t.Fatalf("seed %d %s %d: ok=%v acts=%+v\n before %s\n after  %s", seed, op, seq, ok, acts, before, coreState(h))
			}
		}

		for step := 0; step < 400; step++ {
			h.clk.now += rng.Float64() * 0.3
			op := "reserve"
			switch k := rng.Intn(10); {
			case k < 3:
				absorb(op, h.w.AddReservation(SchedID(rng.Intn(3)), cluster.JobID(1+rng.Intn(6)),
					float64(1+rng.Intn(9)), 1+rng.Intn(5), cluster.Resources{}))
			case k < 6 && len(out) > 0:
				op = "reply"
				seq := anyOut()
				o := out[seq]
				settle(seq)
				acts, ok := h.w.OnReply(seq, randomReply(o))
				if !ok {
					t.Fatalf("seed %d: offer %d was out and its reply was rejected", seed, seq)
				}
				absorb(op, acts)
			case k == 6 && len(settled) > 0:
				op = "duplicate reply"
				rejected(op, settled[rng.Intn(len(settled))])
			case k == 6:
				op = "unknown reply"
				rejected(op, []uint64{0, lastSeq + 1 + uint64(rng.Intn(3))}[rng.Intn(2)])
			case k == 7:
				op = "expire"
				cutoff := h.clk.now - rng.Float64()
				for seq := uint64(1); seq <= lastSeq; seq++ {
					if o, ok := out[seq]; ok && o.at <= cutoff {
						settle(seq)
					}
				}
				timeouts := h.stats.OfferTimeouts + int64(h.w.OffersOut()-len(out))
				absorb(op, h.w.ExpireOffers(cutoff))
				if h.stats.OfferTimeouts != timeouts {
					t.Fatalf("seed %d: OfferTimeouts = %d, want %d", seed, h.stats.OfferTimeouts, timeouts)
				}
			case k == 8 && rng.Intn(3) == 0:
				op = "drop"
				sched := SchedID(rng.Intn(3))
				for seq := uint64(1); seq <= lastSeq; seq++ {
					if o, ok := out[seq]; ok && o.sched == sched {
						settle(seq)
					}
				}
				acts, _ := h.w.DropSched(sched)
				absorb(op, acts)
				for _, e := range h.w.entries {
					if !e.dead && e.Sched == sched {
						t.Fatalf("seed %d: dropped scheduler %d still has an entry", seed, sched)
					}
				}
			case k == 8 && retryArmed:
				op = "retry"
				retryArmed = false
				absorb(op, h.w.RetryFired())
			default:
				op = "slots"
				h.slots = rng.Intn(4)
				absorb(op, h.w.Kick())
			}
			check(op)
		}

		// Settle whatever is out, one way or another, and nothing may be
		// left: every offer's end closes or continues its round, and no
		// round waits on anything but an offer.
		h.slots = 0 // no new rounds; the running ones may still go on
		for n := 0; len(out) > 0; n++ {
			if n > 1000 {
				t.Fatalf("seed %d: offers still out after 1000 settlements: %+v", seed, out)
			}
			h.clk.now += 0.2
			seq := anyOut()
			o := out[seq]
			switch rng.Intn(3) {
			case 0:
				settle(seq)
				absorb("final reply", reply(t, h.w, seq, Reply{Job: o.job, From: o.sched, JobDone: true}))
			case 1:
				for s := range out {
					settle(s)
				}
				absorb("final expire", h.w.ExpireOffers(h.clk.now))
			default:
				for s, x := range out {
					if x.sched == o.sched {
						settle(s)
					}
				}
				acts, _ := h.w.DropSched(o.sched)
				absorb("final drop", acts)
			}
			check("final")
		}
		if h.w.activeRounds != 0 || h.w.OffersOut() != 0 {
			t.Fatalf("seed %d: every offer settled, %d rounds still active", seed, h.w.activeRounds)
		}
		if _, ok := h.w.OldestOffer(); ok {
			t.Fatalf("seed %d: OldestOffer reports an offer with none out", seed)
		}
		if lastSeq != h.w.offerSeq || lastSeq < 50 {
			t.Fatalf("seed %d: %d offers seen, core counted %d — run too quiet to mean anything", seed, lastSeq, h.w.offerSeq)
		}
	}
}
