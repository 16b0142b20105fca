package protocol

import (
	"math/rand"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/stats"
)

// WorkerEnv is the environment a worker core runs in. Place starts the
// handed-over unit of work on the worker's machine and reports whether
// it actually started (false when the task finished while the accept was
// in flight; the adapter must notify the scheduler's PlacementFailed so
// occupancy stays correct).
type WorkerEnv struct {
	// Now returns the current time in seconds on the adapter's clock.
	Now func() float64

	// Rand drives the Guideline-3 weighted choice.
	Rand *rand.Rand

	// FreeSlots is the number of currently free task slots on the
	// worker's machine.
	FreeSlots func() int

	// Cap is the per-slot capacity of the worker's machine, fixed for
	// the machine's lifetime. Reservations whose piggybacked demand does
	// not fit are never offered for (the scheduler's takeTask re-checks
	// against the same capacity, so nothing unfitting is ever handed
	// out). The zero vector is the homogeneous value: zero demands fit
	// it by the IsZero short-circuit.
	Cap cluster.Resources

	// Place runs the reply's task. In the simulator this is
	// Executor.PlaceOn; in a live node it occupies a slot and arms the
	// emulated-execution timer.
	Place func(from SchedID, rep Reply) bool

	// Stats receives protocol counters; must be non-nil.
	Stats *Stats

	// Pool recycles the worker's purged entries and finished rounds and
	// holds the scratch its calls use, the returned action list included:
	// that list stays valid only until the next call into any worker
	// sharing the pool. The workers of one simulated plane share one
	// (they run on one goroutine); a worker on a goroutine of its own
	// leaves it nil and gets a pool of its own.
	Pool *Pool
}

// Pool holds what the worker cores of one plane share, so the plane
// allocates per plane and not per worker: purged reservation entries
// and finished negotiation rounds for reuse by any worker, the slabs new
// ones and first queue arrays are carved from, and the scratch a core
// call uses only while it runs. Not safe for concurrent use: every
// worker sharing a pool must be driven from one goroutine.
//
// The action list a core call returns is that scratch too: it belongs to
// the pool and stays valid until the next call into any worker that
// shares the pool, so an adapter consumes it before it calls a core
// again.
type Pool struct {
	entries []*Entry
	rounds  []*round

	// The slabs hand out new objects once the free lists run dry. Each
	// refill holds as many objects as the pool has made so far (at least
	// one, at most slabMax), so a pool that never needs many never makes
	// many, and a busy one makes few slabs.
	entrySlab   []Entry
	roundSlab   []round
	queueSlab   []*Entry
	entriesMade int
	roundsMade  int
	queuesMade  int

	// Per-call scratch: the action list and Guideline 3's weighted-choice
	// buffers, reset at every top-level core entry point.
	acts      []WAction
	g3Cands   []*Entry
	g3Weights []float64
}

const (
	// slabMax caps one refill of a pool slab.
	slabMax = 64
	// queueCarve is the capacity of a worker's first queue array, carved
	// from the pool's queue slab; a queue that outgrows it moves to an
	// array of its own.
	queueCarve = 4
	// triedCarve is the capacity of a round's tried list, carved with
	// the round.
	triedCarve = 4
)

// slabSize is the next refill's object count after made objects.
func slabSize(made int) int { return min(max(made, 1), slabMax) }

// queue returns an empty queue array of capacity queueCarve carved from
// the queue slab (a[i:i:i+n], so appends past it never reach a
// neighbour's carve).
func (p *Pool) queue() []*Entry {
	if len(p.queueSlab) == 0 {
		n := slabSize(p.queuesMade)
		p.queueSlab = make([]*Entry, n*queueCarve)
		p.queuesMade += n
	}
	q := p.queueSlab[0:0:queueCarve]
	p.queueSlab = p.queueSlab[queueCarve:]
	return q
}

// Entry aggregates a worker's queued reservations for one (scheduler,
// job) pair, with the latest piggybacked ordering metadata. Entries are
// pooled: a purged entry is tombstoned in place (dead), its generation
// bumped to invalidate outstanding refs, and handed to the worker's Pool
// at the next queue compaction, from which any worker sharing the pool
// may reissue it.
type Entry struct {
	Sched    SchedID
	Job      cluster.JobID
	count    int     // outstanding reservations
	vs       float64 // latest known virtual size (Hopper ordering)
	remTasks int     // latest known remaining tasks (Sparrow-SRPT ordering)
	seq      int64   // arrival order (Sparrow FIFO)
	coolTill float64 // no refusable offers until then (its job just refused, holding work)

	// demand is the latest probe's piggybacked resource demand; entries
	// whose demand does not fit this worker's slot capacity are skipped
	// by every pick rule (zero, and therefore always fitting, in
	// homogeneous configurations).
	demand cluster.Resources

	// dead marks a purged entry awaiting compaction; every scan skips it.
	dead bool
	// gen counts purges of this pooled object. An entryRef or tried mark
	// taken before the purge carries the old generation and resolves to
	// nil/untried afterwards — exactly the semantics the old map-backed
	// queue had for detached entries, without blocking recycling. The
	// generation survives reissue, to this worker or another sharing
	// its pool, so it only ever grows.
	gen uint32
}

// entryRef is a generation-stamped reference to a pooled Entry, captured
// when an offer is sent and resolved when its reply arrives. A ref taken
// before the entry was purged (job finished, scheduler dropped) resolves
// to nil, just as a detached map entry was inert before pooling. The
// zero entryRef is the explicit "no entry captured" value (non-refusable
// offers may target jobs the worker holds no reservation for).
type entryRef struct {
	e   *Entry
	gen uint32
}

// isZero reports whether the ref was captured without an entry.
func (r entryRef) isZero() bool { return r.e == nil }

// live resolves the ref against the entry's current generation.
func (r entryRef) live() *Entry {
	if r.e != nil && !r.e.dead && r.e.gen == r.gen {
		return r.e
	}
	return nil
}

// refOf stamps a live entry.
func refOf(e *Entry) entryRef { return entryRef{e: e, gen: e.gen} }

// triedRef is a round-local tried mark; the generation keeps a recycled
// entry (same pointer, new reservation) from inheriting the mark.
type triedRef struct {
	e   *Entry
	gen uint32
}

// Worker timing, in seconds on the adapter's clock. Nothing ever ran
// with other values, so they are the protocol's constants rather than
// configuration.
const (
	// retryBackoffMin/Max bound the idle retry backoff after a round that
	// placed nothing. The max is a hard cap: no armed delay exceeds it,
	// jitter included.
	retryBackoffMin = 0.25
	retryBackoffMax = 2.0

	// refusalCooldown is how long a worker treats a job as satisfied
	// after its scheduler refused an offer while holding work, before
	// offering to it refusably again.
	refusalCooldown = 0.1
)

// Worker is one machine's protocol core: it owns the reservation queue
// and implements the late-binding pull protocol — Pseudocode 3 in Hopper
// mode, plain Sparrow task pulls in the baseline modes. A worker can run
// one negotiation round per free slot (bounded; see maxConcurrentRounds).
//
// Demand is pushed to the worker, never polled for: a reservation lives
// from the probe that made it until its scheduler hands over a task for
// every probe, reports the job done, or answers NoDemand. After any of
// those the worker holds nothing for the job and asks nothing about it;
// the scheduler's next probe is what brings it back (see
// Sched.HandleOffer for the scheduler's half of that contract).
// Not safe for concurrent use; the adapter serializes all calls.
type Worker struct {
	cfg Config
	env WorkerEnv

	// entries holds live and dead-tombstoned reservation entries in
	// arrival order, never more dead than live after a purge (see
	// purge). The queue is small (one entry per (scheduler, job) pair
	// with outstanding reservations here), so lookups are linear scans
	// over the same cache lines every pick already walks — the old map
	// index paid hashing and maintenance for no asymptotic gain.
	entries     []*Entry
	deadEntries int

	// active holds the rounds in negotiation, in no particular order.
	// Between two calls into the core each of them has exactly one offer
	// unanswered (round.out), so this array is the table of offers in
	// flight: a reply finds its round here by sequence number, and
	// offerSeq is the number of the last offer sent.
	active       [maxConcurrentRounds]*round
	activeRounds int
	offerSeq     uint64

	backoff    float64
	retryArmed bool
	seqCounter int64
}

// NewWorker builds a worker core. cfg must already have defaults applied.
// The core never reads its machine's id: the first parameter is unused,
// and kept while bench/ passes one (ROADMAP item 6a).
func NewWorker(_ cluster.MachineID, cfg Config, env WorkerEnv) *Worker {
	if env.Pool == nil {
		env.Pool = &Pool{}
	}
	return &Worker{
		cfg:     cfg,
		env:     env,
		backoff: retryBackoffMin,
	}
}

// find returns the live entry for a (scheduler, job) pair, or nil.
func (w *Worker) find(sched SchedID, job cluster.JobID) *Entry {
	for _, e := range w.entries {
		if !e.dead && e.Sched == sched && e.Job == job {
			return e
		}
	}
	return nil
}

// newEntry appends a fresh entry for the pair, recycling from the pool
// when possible and carving from its slab when not.
func (w *Worker) newEntry(sched SchedID, job cluster.JobID) *Entry {
	var e *Entry
	p := w.env.Pool
	if n := len(p.entries); n > 0 {
		e = p.entries[n-1]
		p.entries[n-1] = nil
		p.entries = p.entries[:n-1]
		*e = Entry{gen: e.gen} // generation survives recycling
	} else {
		if len(p.entrySlab) == 0 {
			n := slabSize(p.entriesMade)
			p.entrySlab = make([]Entry, n)
			p.entriesMade += n
		}
		e = &p.entrySlab[0]
		p.entrySlab = p.entrySlab[1:]
	}
	e.Sched, e.Job = sched, job
	e.seq = w.seqCounter
	w.seqCounter++
	if cap(w.entries) == 0 {
		w.entries = p.queue()
	}
	w.entries = append(w.entries, e)
	return e
}

// begin resets the pool's action list at each top-level core entry
// point; acts returns it.
func (w *Worker) begin() { w.env.Pool.acts = w.env.Pool.acts[:0] }

func (w *Worker) acts() []WAction { return w.env.Pool.acts }

// emit appends an action to the pool's action list.
func (w *Worker) emit(a WAction) { w.env.Pool.acts = append(w.env.Pool.acts, a) }

// AddReservation enqueues (or tops up) a reservation from a scheduler
// and returns the actions to execute. demand is the probe's piggybacked
// per-copy resource demand (the zero vector on homogeneous clusters).
func (w *Worker) AddReservation(sched SchedID, job cluster.JobID, vs float64, remTasks int, demand cluster.Resources) []WAction {
	w.begin()
	e := w.find(sched, job)
	if e == nil {
		e = w.newEntry(sched, job)
	}
	e.count++
	e.vs = vs
	e.remTasks = remTasks
	e.demand = demand
	e.coolTill = 0 // fresh probes signal fresh demand
	// A new reservation justifies an immediate try, but does not reset
	// the failure backoff: only a successful placement does.
	w.kick()
	return w.acts()
}

// Kick starts negotiation rounds while slots and reservations allow
// (called when a slot frees) and returns the actions to execute.
func (w *Worker) Kick() []WAction {
	w.begin()
	w.kick()
	return w.acts()
}

// RetryFired is the adapter's callback when an armed retry elapses.
func (w *Worker) RetryFired() []WAction {
	w.begin()
	w.retryArmed = false
	w.kick()
	return w.acts()
}

// LostReservation records one job's reservation state discarded by
// DropSched, so a live adapter can report it to the scheduler when (if)
// the scheduler comes back: the restarted scheduler counts these for
// reconciliation accounting, and fresh probes from job resubmission
// recreate the reservations themselves.
type LostReservation struct {
	Job   cluster.JobID
	Count int // reservations held for the job
}

// DropSched removes every reservation entry of a scheduler that left
// the cluster (live adapters only — the simulator never loses
// schedulers) and resumes, in sequence order, every round whose offer
// to that scheduler will now never be answered, as if it had said
// JobDone. It returns the actions that follow and the reservation
// inventory that was lost, for re-registration reporting.
func (w *Worker) DropSched(sched SchedID) ([]WAction, []LostReservation) {
	w.begin()
	var lost []LostReservation
	for _, e := range w.entries {
		if !e.dead && e.Sched == sched {
			if e.count > 0 {
				lost = append(lost, LostReservation{Job: e.Job, Count: e.count})
			}
			e.dead = true
			e.gen++
			w.deadEntries++
		}
	}
	w.compact()
	for after, upTo := uint64(0), w.offerSeq; ; {
		r := w.nextOffer(after, upTo)
		if r == nil {
			break
		}
		after = r.out.seq
		if r.out.sched == sched {
			r.resume(Reply{Job: r.out.job, From: sched, JobDone: true})
		}
	}
	return w.acts(), lost
}

// purge tombstones an entry; the queue compacts as soon as dead entries
// are the majority, so after any purge it holds no more tombstones than
// live entries and every scan is O(live). A compaction costs less than
// twice the purges since the last one, so the rule is amortized O(1) per
// purge. Order of the live entries is preserved throughout. A stale
// purge (an in-flight reply for an entry already purged) is a no-op.
func (w *Worker) purge(e *Entry) {
	if e.dead {
		return
	}
	e.dead = true
	e.gen++ // invalidate outstanding refs and tried marks
	w.deadEntries++
	if w.deadEntries*2 > len(w.entries) {
		w.compact()
	}
}

// compact squeezes dead entries out of the queue, preserving live order,
// and hands them to the pool. Pointers stay valid — only slots move — so
// round-held refs survive; the bumped generations already made them
// resolve to nil.
func (w *Worker) compact() {
	p := w.env.Pool
	live := w.entries[:0]
	for _, e := range w.entries {
		if e.dead {
			p.entries = append(p.entries, e)
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(w.entries); i++ {
		w.entries[i] = nil
	}
	w.entries = live
	w.deadEntries = 0
}

// maxConcurrentRounds caps in-flight negotiations per worker: when a
// round places a task it immediately starts the next, so throughput is
// preserved, while concurrent rounds of one worker mostly offer the same
// few entries to the same schedulers. Measured without the cap on the
// benchmark's two decentralized replays: 43 % more events per placed
// copy (offers 5.4 -> 8.7), a quarter fewer rounds placing, job times
// within a seed's spread.
const maxConcurrentRounds = 2

// freeForRounds is how many additional negotiation rounds may start.
func (w *Worker) freeForRounds() int {
	n := w.env.FreeSlots() - w.activeRounds
	if cap := maxConcurrentRounds - w.activeRounds; n > cap {
		n = cap
	}
	return n
}

// hasOfferableWork reports whether some reservation can be offered right
// now (outstanding count, not in refusal cooldown, demand fits this
// worker). Rounds only start against offerable entries, so every round
// sends at least one message — this is what makes the kick loop
// terminate. The fit filter must match the pick rules exactly: an entry
// the picks would skip but this predicate counted would spin kick
// forever on a free slot it can never fill.
func (w *Worker) hasOfferableWork() bool {
	now := w.env.Now()
	for _, e := range w.entries {
		if !e.dead && e.count > 0 && e.coolTill <= now && w.fitsHere(e) {
			return true
		}
	}
	return false
}

// hasAnyReservations ignores cooldowns; used to decide whether a backoff
// retry is worth arming. What is left in the queue after a round that
// placed nothing is a job that refused while holding work (cooling), an
// entry the round ended before reaching, or one whose reply never came;
// an entry answered NoDemand is gone and arms nothing. A non-fitting
// entry does not count: its demand cannot shrink except via a fresh
// probe, which kicks the worker anyway.
func (w *Worker) hasAnyReservations() bool {
	for _, e := range w.entries {
		if !e.dead && e.count > 0 && w.fitsHere(e) {
			return true
		}
	}
	return false
}

// newRound pops a recycled round (or carves one, with its tried list,
// from the pool's slab) and binds it to this worker, whichever worker
// sharing the pool ended it; fields are reset here so endRound can push
// rounds back without scrubbing them.
func (w *Worker) newRound() *round {
	p := w.env.Pool
	var r *round
	if n := len(p.rounds); n > 0 {
		r = p.rounds[n-1]
		p.rounds[n-1] = nil
		p.rounds = p.rounds[:n-1]
	} else {
		if len(p.roundSlab) == 0 {
			n := slabSize(p.roundsMade)
			p.roundSlab = make([]round, n)
			tried := make([]triedRef, n*triedCarve)
			for i := range p.roundSlab {
				p.roundSlab[i].tried = tried[i*triedCarve : i*triedCarve : (i+1)*triedCarve]
			}
			p.roundsMade += n
		}
		r = &p.roundSlab[0]
		p.roundSlab = p.roundSlab[1:]
	}
	*r = round{w: w, tried: r.tried[:0]}
	return r
}

// kick starts negotiation rounds while slots and reservations allow.
func (w *Worker) kick() {
	if w.retryArmed {
		w.retryArmed = false
		w.emit(WAction{Kind: WCancelRetry})
	}
	for w.freeForRounds() > 0 && w.hasOfferableWork() {
		r := w.newRound()
		w.active[w.activeRounds] = r
		w.activeRounds++
		w.env.Stats.RoundsStarted++
		r.step()
	}
	w.scheduleRetry()
}

// scheduleRetry arms a backoff retry after an unsuccessful round, so
// reservations that could not be served now are offered again even if no
// new message arrives. Loss-free runs all but never fire it (once or
// twice in a ten-thousand-placement replay); it is the recovery path for
// lost replies.
func (w *Worker) scheduleRetry() {
	if !w.hasAnyReservations() || w.retryArmed || w.freeForRounds() <= 0 {
		return
	}
	d := w.backoff
	w.backoff = min(2*w.backoff, retryBackoffMax)
	if j := w.cfg.RetryJitter; j > 0 {
		d = max(d*(1+j*(2*w.env.Rand.Float64()-1)), retryBackoffMin)
	}
	// Hard cap after jitter: a long partition must converge on retries
	// every retryBackoffMax seconds, never longer.
	d = min(d, retryBackoffMax)
	w.retryArmed = true
	w.emit(WAction{Kind: WArmRetry, Delay: d})
}

// endRound settles a finished negotiation and recycles the round. By the
// time a round ends it has no offer in flight (the reply that ended it
// was its only outstanding message), so the object is free for reuse —
// it is pushed after the follow-up kick so a round never recycles into
// itself mid-frame.
func (w *Worker) endRound(r *round, placed bool) {
	w.activeRounds--
	for i, x := range w.active {
		if x == r {
			w.active[i] = w.active[w.activeRounds]
			w.active[w.activeRounds] = nil
			break
		}
	}
	if placed {
		w.env.Stats.RoundsPlaced++
		w.backoff = retryBackoffMin
		w.kick()
	} else {
		w.scheduleRetry()
	}
	w.env.Pool.rounds = append(w.env.Pool.rounds, r)
}

// place runs the accepted task via the adapter. The adapter returns
// false when the task finished while the accept was in flight (a
// speculative copy racing its original) after notifying the scheduler so
// its occupancy count stays correct.
func (w *Worker) place(from SchedID, rep Reply) bool {
	return w.env.Place(from, rep)
}

// round is one slot's negotiation (Pseudocode 3 in Hopper mode). tried
// is a small per-round list (a round touches at most a handful of
// entries: the refusal threshold bounds the refusable offers, and a
// failed G3 sample removes its entry from the queue) —
// it must be round-private, not an entry-side stamp, because a
// multi-slot worker runs up to maxConcurrentRounds rounds at once and
// their tried sets are independent. Rounds are pooled with entries
// (WorkerEnv.Pool) and rebound to the worker that reissues them; the
// generation stamps in tried keep recycled entries from inheriting
// marks.
type round struct {
	w          *Worker
	tried      []triedRef
	refusals   int
	hasUnsat   bool
	unsatSched SchedID
	unsatJob   cluster.JobID
	unsatVS    float64
	g3         bool

	// out is the one offer the round is waiting on; seq 0 while a reply
	// is being processed, which is the only time a round has none. An
	// offer ends in one of three ways — its reply arrives (OnReply), it
	// goes unanswered for too long (ExpireOffers), or its scheduler is
	// gone (DropSched) — and each resumes the round, once (resume).
	out offer
}

// offer is a sent offer or task pull as its round remembers it: the
// number its reply will carry, whom it went to, when, and a ref to the
// reservation entry it was made for — zero when the reply handler must
// look the entry up at delivery time (the non-refusable
// smallest-unsatisfied offer targets a job the worker may hold no
// reservation for).
type offer struct {
	seq    uint64
	entry  entryRef
	sched  SchedID
	job    cluster.JobID
	sentAt float64
}

// send numbers the offer a describes, makes it the round's outstanding
// one and emits it.
func (r *round) send(a WAction, entry entryRef) {
	w := r.w
	w.offerSeq++
	a.Kind, a.Seq = WSendOffer, w.offerSeq
	r.out = offer{seq: a.Seq, entry: entry, sched: a.Sched, job: a.Job, sentAt: w.env.Now()}
	w.emit(a)
}

func (r *round) wasTried(e *Entry) bool {
	for _, x := range r.tried {
		if x.e == e && x.gen == e.gen {
			return true
		}
	}
	return false
}

func (r *round) markTried(e *Entry) { r.tried = append(r.tried, triedRef{e: e, gen: e.gen}) }

// step advances the round until a message goes out or the round ends.
func (r *round) step() {
	switch r.w.cfg.Mode {
	case ModeHopper, ModeLoadCache:
		r.stepHopper()
	default:
		r.stepSparrow()
	}
}

// fitsHere reports whether an entry's piggybacked demand fits this
// worker's slot capacity; the zero-demand short-circuit keeps the
// homogeneous pick rules comparison-free.
func (w *Worker) fitsHere(e *Entry) bool {
	return e.demand.IsZero() || e.demand.FitsIn(w.env.Cap)
}

// pickMinVS returns the untried fitting entry with the smallest virtual
// size.
func (r *round) pickMinVS() *Entry {
	now := r.w.env.Now()
	var best *Entry
	for _, e := range r.w.entries {
		if e.dead || e.count <= 0 || r.wasTried(e) || e.coolTill > now || !r.w.fitsHere(e) {
			continue
		}
		if best == nil || e.vs < best.vs || (e.vs == best.vs && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

// pickSparrow returns the next entry under the baseline ordering: FIFO
// for stock Sparrow, fewest-remaining-tasks for Sparrow-SRPT.
func (r *round) pickSparrow() *Entry {
	var best *Entry
	srpt := r.w.cfg.Mode == ModeSparrowSRPT
	for _, e := range r.w.entries {
		if e.dead || e.count <= 0 || r.wasTried(e) || !r.w.fitsHere(e) {
			continue
		}
		if best == nil {
			best = e
			continue
		}
		if srpt {
			if e.remTasks < best.remTasks || (e.remTasks == best.remTasks && e.seq < best.seq) {
				best = e
			}
		} else if e.seq < best.seq {
			best = e
		}
	}
	return best
}

// stepHopper implements the refusable phase of Pseudocode 3: offer the
// slot to the smallest-virtual-size job, collecting refusals.
func (r *round) stepHopper() {
	if r.g3 {
		r.stepG3()
		return
	}
	if r.refusals >= r.w.cfg.RefusalThreshold {
		r.conclude()
		return
	}
	e := r.pickMinVS()
	if e == nil {
		r.conclude()
		return
	}
	r.markTried(e)
	r.send(WAction{Sched: e.Sched, Job: e.Job, Refusable: true}, refOf(e))
}

// conclude ends the refusable phase: refusals that carried unsatisfied-job
// info mean the system is still capacity constrained, so the slot goes
// non-refusably to the smallest unsatisfied job (Guideline 2). Refusals
// with no unsatisfied jobs signal spare capacity: switch to Guideline 3's
// virtual-size-weighted random assignment.
func (r *round) conclude() {
	if r.hasUnsat {
		sched, job := r.unsatSched, r.unsatJob
		r.hasUnsat = false
		// Entry deliberately zero: the reply handler looks the entry up at
		// delivery time — the worker may hold no reservation for the
		// unsatisfied job at all.
		r.send(WAction{Sched: sched, Job: job}, entryRef{})
		return
	}
	if r.refusals == 0 {
		// Nothing in the queue responded at all; give up this round.
		r.w.endRound(r, false)
		return
	}
	// Guideline 3 is for exactly the jobs the refusable phase just tried:
	// satisfied, and some of them holding work. Forget the tried marks.
	r.g3 = true
	r.tried = r.tried[:0]
	r.stepG3()
}

// stepG3 is the unconstrained regime: pick a job at random weighted by
// virtual size (large jobs hold more stragglers, Guideline 3) and offer
// the slot non-refusably. A refusal cooldown does not exclude an entry
// here: the refusal says its job is satisfied, which is whom the spare
// slot is for. Each sample that comes back empty leaves the queue (purged
// on NoDemand or JobDone) or the round's candidates (tried), so the walk
// ends by itself.
func (r *round) stepG3() {
	p := r.w.env.Pool
	cands := p.g3Cands[:0]
	weights := p.g3Weights[:0]
	for _, e := range r.w.entries {
		if e.dead || e.count <= 0 || r.wasTried(e) || !r.w.fitsHere(e) {
			continue
		}
		cands = append(cands, e)
		weights = append(weights, e.vs)
	}
	p.g3Cands, p.g3Weights = cands, weights
	if len(cands) == 0 {
		r.w.endRound(r, false)
		return
	}
	e := cands[stats.WeightedChoice(r.w.env.Rand, weights)]
	r.markTried(e)
	r.send(WAction{Sched: e.Sched, Job: e.Job}, refOf(e))
}

// OnReply processes a scheduler's reply to the offer or task pull that
// went out as WSendOffer number seq and returns the follow-up actions.
// ok is false, and nothing has changed, when no round is waiting on that
// number: the offer was answered already (a duplicate), abandoned
// (ExpireOffers), orphaned (DropSched), or never made. What that means
// is the adapter's to say — over a lossy link a late Assign has to be
// handed back to its scheduler; between simulated nodes it cannot happen.
func (w *Worker) OnReply(seq uint64, rep Reply) (acts []WAction, ok bool) {
	r := w.nextOffer(seq-1, seq) // the one number in the range; none for seq 0
	if r == nil {
		return nil, false
	}
	w.begin()
	r.resume(rep)
	return w.acts(), true
}

// ExpireOffers abandons every offer sent at or before the given time on
// env.Now()'s clock and still unanswered — the offer or its reply was
// lost — oldest first, and returns the actions that follow. Each round
// resumes against the empty reply, exactly as if its scheduler had
// answered empty-handed: the entry cools, so a healthy-but-slow
// scheduler is retried rather than written off. How long is too long is
// the adapter's constant; it passes it here as a time.
func (w *Worker) ExpireOffers(sentAtOrBefore float64) []WAction {
	w.begin()
	for upTo := w.offerSeq; ; {
		r := w.nextOffer(0, upTo)
		if r == nil || r.out.sentAt > sentAtOrBefore {
			break
		}
		w.env.Stats.OfferTimeouts++
		r.resume(Reply{Job: r.out.job, From: r.out.sched})
	}
	return w.acts()
}

// OldestOffer reports when the longest-unanswered offer was sent, which
// is all an adapter needs to know to aim its one ExpireOffers timer; ok
// is false when no offer is out.
func (w *Worker) OldestOffer() (sentAt float64, ok bool) {
	if r := w.nextOffer(0, w.offerSeq); r != nil {
		return r.out.sentAt, true
	}
	return 0, false
}

// OffersOut is the number of offers awaiting a reply — one per active
// round, so at most maxConcurrentRounds.
func (w *Worker) OffersOut() int { return w.activeRounds }

// nextOffer returns the round waiting on the lowest-numbered offer in
// (after, upTo], or nil. Offers are numbered in send order, so walking
// a range of numbers this way visits offers oldest first and never
// reaches one sent by the walk's own resumptions (upTo = offerSeq at the
// start of the walk).
func (w *Worker) nextOffer(after, upTo uint64) *round {
	var next *round
	for _, r := range w.active[:w.activeRounds] {
		if seq := r.out.seq; seq > after && seq <= upTo && (next == nil || seq < next.out.seq) {
			next = r
		}
	}
	return next
}

// resume runs the round on from the reply to its outstanding offer —
// real, or the core's stand-in for one that will never come. The
// worker's mode picks the rules, as it did for the offer (round.step).
// A zero entry ref is an offer sent without a captured entry: the entry
// is looked up now, by the reply's (From, Job). A ref whose entry was
// purged while the reply was in flight resolves to nil — a job that
// finished, or a concurrent round's reply that emptied the entry — and
// the reply falls back to its From field, which always matches the
// purged entry's scheduler.
func (r *round) resume(rep Reply) {
	ref := r.out.entry
	r.out.seq = 0
	e := ref.live()
	if ref.isZero() {
		e = r.w.find(rep.From, rep.Job)
	}
	if r.w.cfg.Mode.hopperFamily() {
		r.onHopperReply(e, rep)
	} else {
		r.onSparrowReply(e, rep)
	}
}

func (r *round) onHopperReply(e *Entry, rep Reply) {
	if e != nil {
		if rep.VS > 0 {
			e.vs = rep.VS
		}
		if rep.RemTask > 0 {
			e.remTasks = rep.RemTask
		}
		if rep.JobDone {
			r.w.purge(e)
		}
	}
	switch {
	case rep.HasTask:
		from := rep.From
		if e != nil {
			from = e.Sched
			if e.count > 0 {
				e.coolTill = 0
				e.count--
				if e.count == 0 {
					r.w.purge(e)
				}
			}
		}
		r.w.endRound(r, r.w.place(from, rep))
	case rep.Refused:
		r.refusals++
		r.settleNoTask(e, rep)
		if rep.HasUnsat && (!r.hasUnsat || rep.UnsatVS < r.unsatVS) {
			r.hasUnsat = true
			r.unsatSched = rep.From
			r.unsatJob = rep.UnsatJob
			r.unsatVS = rep.UnsatVS
		}
		r.stepHopper()
	default:
		// No task available (job finished or drained): keep going within
		// the same phase of the round.
		r.settleNoTask(e, rep)
		if r.g3 {
			r.stepG3()
		} else if r.refusals >= r.w.cfg.RefusalThreshold {
			// Non-refusable target had nothing; end the round.
			r.w.endRound(r, false)
		} else {
			r.stepHopper()
		}
	}
}

// settleNoTask applies a task-less reply to the entry it answered. The
// scheduler's NoDemand is authoritative: it probes again whenever the
// job gains work (Sched's no-silent-demand invariant), so the entry is
// dropped, not kept to be polled. A job that refused while holding work
// is satisfied for now and cools down, as does an entry whose reply
// never came (ExpireOffers' stand-in reply carries no flags at all).
func (r *round) settleNoTask(e *Entry, rep Reply) {
	if e == nil || rep.JobDone {
		return // JobDone already purged it
	}
	if rep.NoDemand {
		r.w.purge(e)
		return
	}
	e.coolTill = r.w.env.Now() + refusalCooldown
}

// stepSparrow is the baseline pull: consume one reservation of the chosen
// entry and ask its scheduler for a task.
func (r *round) stepSparrow() {
	e := r.pickSparrow()
	if e == nil {
		r.w.endRound(r, false)
		return
	}
	e.count--
	if e.count <= 0 {
		r.markTried(e)
	}
	r.send(WAction{Sched: e.Sched, Job: e.Job, GetTask: true}, refOf(e))
}

func (r *round) onSparrowReply(e *Entry, rep Reply) {
	from := rep.From
	if e != nil {
		from = e.Sched
		if rep.RemTask > 0 {
			e.remTasks = rep.RemTask
		}
		if e.count <= 0 || rep.JobDone {
			r.w.purge(e)
		}
	}
	if rep.HasTask {
		if r.w.place(from, rep) {
			r.w.endRound(r, true)
			return
		}
	}
	r.stepSparrow()
}
