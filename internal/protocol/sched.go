package protocol

import (
	"math/rand"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// SchedEnv is the environment a scheduler core runs in: a clock, an RNG
// (shared with the adapter's other draws in the simulator, private in a
// live node), and the cluster topology view used to aim probes.
type SchedEnv struct {
	// Now returns the current time in seconds on the adapter's clock.
	Now func() float64

	// Rand drives probe-count rounding and random probe targets.
	Rand *rand.Rand

	// TotalSlots is the cluster-wide slot count (fairness floor).
	TotalSlots func() int

	// RandomWorkers fills scratch with n distinct random worker IDs;
	// the returned slice aliases scratch (cluster.Machines.RandomSubset
	// semantics).
	RandomWorkers func(rng *rand.Rand, n int, scratch []cluster.MachineID) []cluster.MachineID

	// WorkerCap returns worker m's per-slot capacity vector, used to keep
	// tasks with a declared demand off machines that cannot hold them.
	// Nil means the adapter advertises no capacity topology (homogeneous
	// clusters; every demand there is zero, so the check short-circuits
	// before this is consulted).
	WorkerCap func(m cluster.MachineID) cluster.Resources

	// Stats receives protocol counters; must be non-nil.
	Stats *Stats
}

// dJob is the core's record of one owned job: the speculation record
// both planes share (speculation.JobBook: want queue, occupancy, running
// count, phase credits; DESIGN.md section 6) and what only the core
// keeps. Queues are ring deques, because at cluster scale every
// offer/refusal touches this state.
type dJob struct {
	speculation.JobBook

	// pos is the job's slot in Sched.jobList; JobDone nil-tombstones it
	// there and the list compacts amortized (order preserved).
	pos int

	// pendingFresh holds launchable, not-yet-handed-out original tasks of
	// runnable phases, in phase order. Fresh demand is a deque here where
	// the chassis keeps a count, because the core hands work out by
	// locality tier (takeTask).
	pendingFresh cluster.TaskDeque

	// quiet is set when the job answers an offer NoDemand with nothing
	// queued at all, and cleared by its next probes. Workers drop their
	// reservation on that answer, so while quiet the job hands out
	// nothing it has not announced (see HandleOffer, Stats.SilentDemand).
	quiet bool
}

// book returns the job's speculation record, nil for a job the core does
// not hold (d nil).
func (d *dJob) book() *speculation.JobBook {
	if d == nil {
		return nil
	}
	return &d.JobBook
}

// demand is how many more slots the job could use right now.
func (d *dJob) demand() int { return d.pendingFresh.Len() + d.Wants() }

// fitsCap reports whether a task's demand fits a worker's per-slot
// capacity. The zero-demand short-circuit keeps homogeneous workloads
// (where every demand is zero) off the comparison entirely, so adding
// capacity awareness is a provable no-op for them.
func fitsCap(t *cluster.Task, cap cluster.Resources) bool {
	return t.Demand.IsZero() || t.Demand.FitsIn(cap)
}

// takeTask hands out the next unit of work, preferring an original task
// whose input is local on machine m, then any original task, then a
// speculative copy — in every tier restricted to tasks whose demand fits
// the offering worker's capacity (cap). Returns (nil, false) when the
// job has nothing this worker can run.
func (sc *Sched) takeTask(d *dJob, m cluster.MachineID, cap cluster.Resources) (*cluster.Task, bool) {
	for i := 0; i < d.pendingFresh.Len(); {
		t := d.pendingFresh.At(i)
		if t.State == cluster.TaskDone {
			// Stale entry: the task completed while queued (only possible
			// through live-adapter recovery races — a reconciled or
			// requeued copy finishing first). Handing it out would place a
			// doomed copy and leak its occupancy.
			d.pendingFresh.RemoveAt(i)
			continue
		}
		if t.LocalOn(m) && fitsCap(t, cap) {
			d.pendingFresh.RemoveAt(i)
			return t, false
		}
		i++
	}
	for i := 0; i < d.pendingFresh.Len(); i++ {
		t := d.pendingFresh.At(i)
		if fitsCap(t, cap) {
			d.pendingFresh.RemoveAt(i)
			return t, false
		}
	}
	if t := sc.book.TakeWant(&d.JobBook, func(t *cluster.Task) bool { return fitsCap(t, cap) }); t != nil {
		return t, true
	}
	return nil, false
}

// oldestUnserved returns the task a reservation refresh should probe
// for: the oldest unlaunched original, else the oldest live want, else
// nil.
func (sc *Sched) oldestUnserved(d *dJob) *cluster.Task {
	if d.pendingFresh.Len() > 0 {
		return d.pendingFresh.At(0)
	}
	return sc.book.OldestWant(&d.JobBook)
}

// Sched is one autonomous job scheduler's protocol core (Figure 4,
// Pseudocode 2). It owns a subset of jobs and knows nothing about other
// schedulers' jobs — coordination happens only through the worker
// protocol. It is not safe for concurrent use: the adapter serializes
// all calls (simulator events or a node's single handler loop).
type Sched struct {
	cfg Config
	env SchedEnv
	id  SchedID

	jobs map[cluster.JobID]*dJob

	// jobList holds owned jobs in admission order; JobDone nil-tombstones
	// a slot (O(1) via dJob.pos) and the list compacts as soon as
	// tombstones are the majority, the worker queue's rule (Worker.purge),
	// replacing the per-completion middle-splice. liveJobs is
	// the tombstone-free count (the old len(jobList)), which the fairness
	// floor and HasJobs read.
	jobList  []*dJob
	liveJobs int
	deadJobs int

	book speculation.Book

	// policy aims the non-replica portion of each task's probes:
	// RandomSubsetPolicy (the paper's rule) everywhere except
	// ModeLoadCache, which installs a LoadCachePolicy.
	policy ProbePolicy

	// Reusable scan/probe buffers (one scheduler handles one message at a
	// time, so a single set per scheduler suffices).
	freshScratch  []*cluster.Task
	reqScratch    []*cluster.Task
	targetScratch []cluster.MachineID
	probeBuf      []Probe
}

// betaWarmup is how many completions a core's β estimator sees before
// it stops reporting Spec.BetaPrior. Ours: the paper gives none, and the
// centralized chassis warms up over 50 (scheduler.newBase); each plane's
// goldens were recorded with its own value, so unifying them is a
// behaviour change with a regen, not a refactor.
const betaWarmup = 30

// NewSched builds a scheduler core. cfg must already have defaults
// applied (adapters call Config.WithDefaults once per cluster).
func NewSched(id SchedID, cfg Config, env SchedEnv) *Sched {
	sc := &Sched{
		cfg:  cfg,
		env:  env,
		id:   id,
		jobs: make(map[cluster.JobID]*dJob),
		book: speculation.NewBook(cfg.Spec, betaWarmup),
	}
	if cfg.Mode == ModeLoadCache {
		sc.policy = NewLoadCachePolicy(0)
	} else {
		sc.policy = &RandomSubsetPolicy{}
	}
	return sc
}

// ObserveWorkerLoad feeds the probe policy one worker's piggybacked
// load report (free slots and per-slot capacity at send time). Adapters
// call it when an offer arrives, before handling the offer; under
// RandomSubsetPolicy it is a no-op, so the Hopper/Sparrow golden paths
// are unaffected.
func (sc *Sched) ObserveWorkerLoad(m cluster.MachineID, free int, cap cluster.Resources) {
	sc.policy.ObserveLoad(m, free, cap, sc.env.Now())
}

// CopyPlaced tells the job's victim index that a copy of t landed (its
// start and duration are now fixed). Adapters call it after every
// placement of a task this core handed out, original or speculative
// (speculation.Monitor.CopyPlaced).
func (sc *Sched) CopyPlaced(t *cluster.Task) {
	if d := sc.jobs[t.Job.ID]; d != nil {
		d.Mon.CopyPlaced(t)
	}
}

// HasJobs reports whether any admitted job is still active — the
// adapter's condition for keeping the speculation ticker armed.
func (sc *Sched) HasJobs() bool { return sc.liveJobs > 0 }

// NeedsTicker reports whether the configuration calls for a periodic
// speculation scan at all.
func (sc *Sched) NeedsTicker() bool { return sc.cfg.Spec.MaxCopies > 1 }

// effVS returns the job's capacity target: virtual size with the
// epsilon-fairness floor applied (decentralized fairness uses the
// scheduler's local estimate of the cluster-wide job count: its own
// active jobs times the number of schedulers, accurate under round-robin
// admission).
func (sc *Sched) effVS(d *dJob) float64 {
	dem, beta := sc.book.Demand(d.Job)
	v := dem.Virtual(beta)
	if sc.cfg.Mode.hopperFamily() {
		n := sc.liveJobs * sc.cfg.NumSchedulers
		if n > 0 {
			floor := (1 - sc.cfg.Spec.Epsilon) * float64(sc.env.TotalSlots()) / float64(n)
			if floor > v {
				v = floor
			}
		}
	}
	return v
}

// orderVS returns the DAG-aware ordering key max(V, V') piggybacked to
// workers for queue ordering. The fairness floor deliberately does not
// enter the ordering: it guarantees capacity (effVS) without destroying
// the smallest-first service order of Guideline 2.
func (sc *Sched) orderVS(d *dJob) float64 {
	dem, beta := sc.book.Demand(d.Job)
	return dem.Priority(beta)
}

// Admit registers a job with this scheduler.
func (sc *Sched) Admit(j *cluster.Job) {
	d := &dJob{JobBook: sc.book.NewJob(j), pos: len(sc.jobList)}
	sc.jobs[j.ID] = d
	sc.jobList = append(sc.jobList, d)
	sc.liveJobs++
}

// PhaseRunnable queues the phase's never-scheduled tasks and returns
// their probes. Delivery is idempotent: the cluster's unlock planner
// delivers exactly-once (its own duplicate would trip the MarkRunnable
// panic), but an adapter path that hands a phase to the core outside
// the planner — a reconnect replay, a future defensive refresh — would
// arrive here unasserted, so a duplicate is counted in
// Stats.DoubleWakeups and suppressed instead of silently re-enqueued:
// phantom pendingFresh entries inflate demand, virtual sizes, and probe
// traffic (the pre-lifecycle double-fire bug). The returned slice is
// reused by the next core call.
func (sc *Sched) PhaseRunnable(p *cluster.Phase) []Probe {
	sc.probeBuf = sc.probeBuf[:0]
	d := sc.jobs[p.Job.ID]
	if d == nil {
		return sc.probeBuf
	}
	if !sc.book.PhaseRunnable(&d.JobBook, p) {
		sc.env.Stats.DoubleWakeups++
		sc.env.Stats.DoubleWakeupTasks += int64(len(p.Tasks))
		return sc.probeBuf
	}
	fresh := sc.freshScratch[:0]
	for _, t := range p.Tasks {
		if t.State != cluster.TaskUnscheduled {
			continue // already handed out or finished: nothing to queue
		}
		d.pendingFresh.PushBack(t)
		fresh = append(fresh, t)
	}
	sc.freshScratch = fresh
	sc.probeForTasks(d, fresh)
	return sc.probeBuf
}

// probeCount returns the number of reservations for one task under the
// configured probe ratio; fractional ratios are realized in expectation.
func (sc *Sched) probeCount() int {
	r := sc.cfg.ProbeRatio
	n := int(r)
	if frac := r - float64(n); frac > 0 && sc.env.Rand.Float64() < frac {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// probeForTasks appends reservation requests for the given tasks to the
// probe buffer: input tasks probe their replica machines first; the
// remainder is aimed by the probe policy — a uniform random subset in
// every paper mode, exactly as in Section 6.1 (such tasks may then run
// without locality), or the load cache in ModeLoadCache.
func (sc *Sched) probeForTasks(d *dJob, tasks []*cluster.Task) {
	if len(tasks) == 0 {
		return
	}
	d.quiet = false
	vs := sc.orderVS(d)
	rem := d.Job.RemainingTasksTotal()
	for _, t := range tasks {
		n := sc.probeCount()
		targets := sc.targetScratch[:0]
		for _, r := range t.Replicas {
			if len(targets) == n {
				break
			}
			// A replica on a worker the task cannot fit is no locality
			// win at all — and worse, it eats the probe budget: the
			// reprobe refresh re-aims the same replicas every tick, so
			// an unfiltered too-small replica set pins a demand-carrying
			// task to workers that can never run it. Zero demand
			// short-circuits, keeping the paper modes' draw sequence
			// (and the dispatch golden) untouched.
			if !fitsCap(t, sc.capOf(r)) {
				continue
			}
			targets = append(targets, r)
		}
		if len(targets) < n {
			targets = sc.policy.Targets(&sc.env, t, n-len(targets), targets)
		}
		sc.targetScratch = targets
		for _, m := range targets {
			sc.probeBuf = append(sc.probeBuf, Probe{Worker: m, Job: d.Job.ID, VS: vs, Rem: rem, Demand: t.Demand})
		}
	}
}

// ScanSpec queues the job's new speculation wants and returns probes for
// them: the straggler policy's candidates in every mode, and in the
// Hopper family every other ripe victim of capacity-driven speculation
// as well (speculation.Book.Scan with victims — a task becomes one merely
// by running past its observation delay, which no message marks); both
// answers come from the victim index, in running-set order. The probes
// are what tells workers the job has work again: they dropped
// their reservations when it last said NoDemand (HandleOffer). In the
// Sparrow baselines this is the only way speculative copies reach
// workers at all.
func (sc *Sched) ScanSpec() []Probe {
	sc.probeBuf = sc.probeBuf[:0]
	now := sc.env.Now()
	for _, d := range sc.jobList {
		if d == nil {
			continue
		}
		sc.freshScratch = sc.book.Scan(now, &d.JobBook, sc.cfg.Mode.hopperFamily(), sc.freshScratch)
		sc.probeForTasks(d, sc.freshScratch)
	}
	return sc.probeBuf
}

// ReprobeStalled returns one fresh batch of probes for every job with
// work nobody is running — for its oldest unlaunched original task or,
// when it has none, its oldest live speculation want. It is the
// periodic reservation refresh of live adapters, where probes can be
// lost (dropped frames, worker drains racing requeues): a task left with
// zero reservations would strand its job, and a want left with none
// waits until its original finishes, because workers that were told
// NoDemand hold no reservation to find it by. Simulator adapters call it
// under churn (probes die at departed machines) and on heterogeneous
// clusters (a demand-carrying task whose probes all landed on too-small
// workers needs a re-roll); loss-free homogeneous runs never do.
// Reservations aggregate per (scheduler, job) at workers, so a redundant
// refresh merely tops up a counter.
func (sc *Sched) ReprobeStalled() []Probe {
	sc.probeBuf = sc.probeBuf[:0]
	for _, d := range sc.jobList {
		if d == nil {
			continue
		}
		if t := sc.oldestUnserved(d); t != nil {
			sc.reqScratch = append(sc.reqScratch[:0], t)
			sc.probeForTasks(d, sc.reqScratch)
		}
	}
	return sc.probeBuf
}

// TaskDone updates estimators and occupancy when one of the scheduler's
// tasks completes.
func (sc *Sched) TaskDone(t *cluster.Task, winner *cluster.Copy) {
	sc.book.TaskDone(sc.jobs[t.Job.ID].book(), t, winner)
}

// JobDone drops the job's state, counting occupancy it still held in
// Stats.OccupancyLeaks.
func (sc *Sched) JobDone(j *cluster.Job) {
	d := sc.jobs[j.ID]
	if sc.book.JobDone(d.book(), j) != 0 {
		sc.env.Stats.OccupancyLeaks++
	}
	if d == nil {
		return
	}
	delete(sc.jobs, j.ID)
	if d.pos < len(sc.jobList) && sc.jobList[d.pos] == d {
		sc.jobList[d.pos] = nil
		sc.liveJobs--
		sc.deadJobs++
		if sc.deadJobs*2 > len(sc.jobList) {
			sc.compactJobs()
		}
	}
}

// compactJobs squeezes tombstones out of jobList, preserving admission
// order and refreshing each survivor's pos.
func (sc *Sched) compactJobs() {
	live := sc.jobList[:0]
	for _, d := range sc.jobList {
		if d != nil {
			d.pos = len(live)
			live = append(live, d)
		}
	}
	for i := len(live); i < len(sc.jobList); i++ {
		sc.jobList[i] = nil
	}
	sc.jobList = live
	sc.deadJobs = 0
}

// smallestUnsatisfied fills the reply's unsat fields with this
// scheduler's job with the smallest effective virtual size that is still
// below it and has work pending — the info piggybacked on refusals
// (Pseudocode 2).
func (sc *Sched) smallestUnsatisfied(rep *Reply) {
	for _, d := range sc.jobList {
		if d == nil || d.demand() == 0 {
			continue
		}
		if float64(d.Occupied) >= sc.effVS(d) {
			continue
		}
		vs := sc.orderVS(d)
		if !rep.HasUnsat || vs < rep.UnsatVS {
			rep.HasUnsat = true
			rep.UnsatJob = d.Job.ID
			rep.UnsatVS = vs
		}
	}
}

// HandleOffer is Pseudocode 2's ResponseProcessing, executed at the
// scheduler when a worker offers a slot for one of its jobs. It returns
// the reply to transmit back.
//
// No silent demand: a worker drops its reservation when told NoDemand,
// so every way a job goes from "would answer NoDemand" to "would hand
// out a task" must send probes — fresh tasks (PhaseRunnable, a
// requeue in CopyLost) and speculation wants, ripe capacity-driven victims
// included (ScanSpec), all do. The one demand found without probes is
// the victim search below, which is why a quiet job skips it: what
// ripened since the job said NoDemand waits for the next ScanSpec to
// announce it, at most one scan period.
func (sc *Sched) HandleOffer(jobID cluster.JobID, m cluster.MachineID, refusable bool) Reply {
	d := sc.jobs[jobID]
	if d == nil {
		return Reply{Job: jobID, From: sc.id, JobDone: true}
	}
	cap := sc.capOf(m)
	if refusable && float64(d.Occupied) >= sc.effVS(d) {
		return sc.noTask(d, true, d.demand() == 0)
	}
	t, spec := sc.takeTask(d, m, cap)
	if t == nil && !d.quiet {
		// Capacity-driven speculation (Pseudocode 2): the job is below
		// its virtual size, i.e. below its desired speculation level, so
		// the slot goes to a racing copy of its worst observable
		// straggler even if the detection policy has not flagged one.
		if v := sc.book.BestVictim(sc.env.Now(), &d.JobBook); v != nil && fitsCap(v, cap) {
			t, spec = v, true
		}
	}
	if t == nil {
		return sc.noTask(d, refusable, true)
	}
	if d.quiet {
		sc.env.Stats.SilentDemand++
	}
	sc.book.HandedOut(&d.JobBook, t, spec)
	return Reply{
		HasTask: true, Task: t, Job: jobID,
		Phase: t.Phase.Index, TaskIndex: t.Index, Spec: spec,
		From: sc.id, VS: sc.orderVS(d), RemTask: d.Job.RemainingTasksTotal(),
	}
}

// noTask builds the reply to an offer that gets no task: a refusal
// (with the smallest unsatisfied job piggybacked, Pseudocode 2) or the
// plain answer to a non-refusable offer. noDemand says this worker has
// nothing to wait for; the job turns quiet only when that holds for
// every worker — a task too big for the offering machine is no demand
// for it, and is still announced demand.
func (sc *Sched) noTask(d *dJob, refused, noDemand bool) Reply {
	rep := Reply{Job: d.Job.ID, From: sc.id, Refused: refused, NoDemand: noDemand}
	if noDemand && d.demand() == 0 {
		d.quiet = true
	}
	// Evaluation order (unsat scan before the job's own orderVS) is the
	// pre-extraction struct literal's: estimator bookkeeping accumulates
	// in the same sequence.
	if refused {
		sc.smallestUnsatisfied(&rep)
	}
	rep.VS = sc.orderVS(d)
	rep.RemTask = d.Job.RemainingTasksTotal()
	return rep
}

// capOf returns worker m's per-slot capacity as this scheduler sees it:
// the adapter's topology answer, or the zero vector when the adapter
// advertises none (homogeneous clusters — zero demands never consult it).
func (sc *Sched) capOf(m cluster.MachineID) cluster.Resources {
	if sc.env.WorkerCap == nil {
		return cluster.Resources{}
	}
	return sc.env.WorkerCap(m)
}

// PlacementFailed rolls back occupancy when a handed-out copy could not
// start because the task finished while the accept was in flight.
func (sc *Sched) PlacementFailed(jobID cluster.JobID) {
	if d := sc.jobs[jobID]; d != nil {
		d.Occupied--
	}
}

// CopyLost settles a copy of t that died without finishing the task — a
// live worker drained, crashed, rejected the hand-out or went silent
// past the copy watchdog; a simulated machine churned away
// (decentral/churn.go) — after the adapter has taken it out of t's live
// copies: occupancy rolls back, the victim index re-keys or retires the
// task (speculation.Monitor.CopyDropped), and a task left unfinished with
// no live copy goes back on the fresh queue. A hand-out lost before its
// copy landed settles here too, with nothing taken out of t's copies.
// Returns the fresh probes for a requeued task.
func (sc *Sched) CopyLost(t *cluster.Task) []Probe {
	sc.probeBuf = sc.probeBuf[:0]
	d := sc.jobs[t.Job.ID]
	if d == nil {
		return sc.probeBuf
	}
	if !sc.book.CopyLost(&d.JobBook, t) {
		return sc.probeBuf
	}
	sc.env.Stats.Requeues++
	// Idempotent under double loss: two machines can lose copies of the
	// same task back to back (concurrent worker crashes, churn), and a
	// duplicate queue entry would hand the task out twice.
	d.pendingFresh.Remove(t)
	d.pendingFresh.PushBack(t)
	sc.reqScratch = append(sc.reqScratch[:0], t)
	sc.probeForTasks(d, sc.reqScratch)
	return sc.probeBuf
}

// ReconcileRunning restores the hand-out bookkeeping for a copy that a
// re-registering worker reports as still executing (scheduler restart,
// live adapters only). It mirrors the occupancy/running accounting of a
// normal hand-out without consuming a reservation, so the rebuilt core
// neither double-places the task nor leaks occupancy when the copy
// completes. The caller must have transitioned the task to Running
// (cluster.Task.StartCopy) before admitting the job's phases, so
// PhaseRunnable skips it.
func (sc *Sched) ReconcileRunning(t *cluster.Task, spec bool) {
	d := sc.jobs[t.Job.ID]
	if d == nil {
		return
	}
	// The task may already sit in pendingFresh: the job was (re)admitted
	// before this worker's inventory arrived, so PhaseRunnable queued it
	// as unplaced. Pull it out or it gets handed out a second time —
	// and, once done, leaks the phantom hand-out's occupancy forever.
	d.pendingFresh.Remove(t)
	sc.book.HandedOut(&d.JobBook, t, spec)
	d.Mon.CopyPlaced(t)
	sc.env.Stats.ReconciledCopies++
}

// ReconcileReservations accounts for reservations a re-registering
// worker reports having lost with the previous scheduler instance.
// Nothing is re-installed — fresh probes on job resubmission recreate
// demand — but the count surfaces in Stats so operators can see the
// recovery happened.
func (sc *Sched) ReconcileReservations(n int) {
	sc.env.Stats.ReconciledReservations += int64(n)
}

// HandleGetTask is the Sparrow baselines' task pull: hand over the next
// task (original first, then best-effort speculative) or report no-task,
// consuming the reservation either way.
func (sc *Sched) HandleGetTask(jobID cluster.JobID, m cluster.MachineID) Reply {
	d := sc.jobs[jobID]
	if d == nil {
		return Reply{Job: jobID, From: sc.id, JobDone: true}
	}
	t, spec := sc.takeTask(d, m, sc.capOf(m))
	if t == nil {
		return Reply{Job: jobID, From: sc.id, RemTask: d.Job.RemainingTasksTotal()}
	}
	sc.book.HandedOut(&d.JobBook, t, spec)
	return Reply{
		HasTask: true, Task: t, Job: jobID,
		Phase: t.Phase.Index, TaskIndex: t.Index, Spec: spec,
		From: sc.id, RemTask: d.Job.RemainingTasksTotal(),
	}
}
