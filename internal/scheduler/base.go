// Package scheduler implements the centralized scheduling engines the
// paper builds and compares (Sections 4, 6.2, 7.4):
//
//   - Hopper: speculation-aware allocation per Guidelines 1-3 with
//     epsilon-fairness, DAG weighting, and locality relaxation.
//   - SRPT: shortest remaining processing time with best-effort
//     speculation (the paper's aggressive centralized baseline).
//   - Budgeted: SRPT with a fixed slot budget reserved for speculation
//     (the second strawman of Section 3.1).
//
// All engines share a chassis (Base) that owns job lifecycle, placement
// and the fresh-demand and at-cap counters. The per-job speculation
// record, the speculation scan and the online estimators are the
// speculation.Book the decentralized core holds too. Engines differ only
// in how they pick the next (job, task) for a free slot.
package scheduler

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// Config bundles the knobs shared by all centralized engines.
type Config struct {
	// Spec is the parameter table both planes share (speculation.Config:
	// straggler detection, the β prior, ε), each field with its source.
	// One table is ours: the planes cannot drift apart.
	Spec speculation.Config

	// LocalityK is the locality relaxation window in percent of active
	// jobs (Section 4.4, Hopper engine only). The paper uses 3.
	LocalityK float64

	// CheckInterval is the period (seconds) of the speculation scan.
	// Default 1.0, ours: the paper states no scan period, and one second
	// is short beside the traces' 30-second tasks; interactive
	// (Spark-like) runs set smaller values.
	CheckInterval float64

	// SpecBudget is the reserved speculation pool size for the Budgeted
	// engine, Section 3.1's second strawman; ignored elsewhere.
	SpecBudget int

	// DisableSpec turns straggler mitigation off entirely: ours, for the
	// ablation's "spec off" row.
	DisableSpec bool
}

// WithDefaults fills zero-valued fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	c.Spec = c.Spec.WithDefaults()
	if c.LocalityK == 0 {
		c.LocalityK = 3
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 1.0
	}
	return c
}

// betaWarmup is how many completions the chassis' β estimator sees
// before it stops reporting Spec.BetaPrior. Ours: the paper gives none,
// and the decentralized core warms up over 30 (protocol.NewSched); each
// plane's goldens were recorded with its own value, so unifying them is
// a behaviour change with a regen, not a refactor.
const betaWarmup = 50

// jobState is the chassis' record of one active job: the speculation
// record both planes share (speculation.JobBook: want queue, occupancy,
// running count, phase credits) and what only the chassis keeps.
//
// Invariants (the incremental-state contract, DESIGN.md section 6):
//   - fresh always equals the phase-scan count of never-scheduled tasks
//     in runnable phases (maintained on phase-runnable and fresh
//     placement; TestFreshCounterMatchesScan checks it against the scan
//     on every dispatch, and dispatch_diff_test.go covers it end to end
//     through placement-log identity);
//   - atCap always equals the number of running tasks at the copy cap
//     (maintained on every placement and on task completion;
//     TestAtCapCounterMatchesScan checks it against the loop on every
//     dispatch).
type jobState struct {
	speculation.JobBook

	// fresh counts never-scheduled tasks in runnable phases — the cached
	// form of the per-dispatch phase rescan.
	fresh int

	// atCap counts running tasks at the copy cap — the cached form of the
	// Hopper engine's per-dispatch walk over the running set, which sizes
	// its hold from the tasks still below the cap.
	atCap int

	// target and prio cache the Hopper engine's guideline allocation and
	// DAG-aware priority for this job, and activeIdx its index in
	// Base.active, all rewritten by HopperEngine.refresh (activeIdx at its
	// start, to map the last refresh's order onto this one's indices).
	// Unused by the other engines.
	target    int
	prio      float64
	activeIdx int
}

// belowCap counts running tasks that could still take a speculative
// copy.
func (s *jobState) belowCap() int { return s.Running - s.atCap }

// demand is total placeable units: fresh tasks plus pending spec wants.
func (s *jobState) demand() int { return s.fresh + s.Wants() }

// nextFresh returns the next unscheduled task in the earliest runnable
// phase, or nil.
func (s *jobState) nextFresh() *cluster.Task {
	for _, p := range s.Job.RunnablePhases() {
		if t := p.NextUnscheduled(); t != nil {
			return t
		}
	}
	return nil
}

// Base is the shared chassis. Engines embed it and set dispatch.
type Base struct {
	Cfg  Config
	Eng  *simulator.Engine
	Exec *cluster.Executor

	// Book is the chassis' speculation bookkeeping — β and α estimators,
	// and the handlers behind each job's JobBook and its monitor — the
	// same record the decentralized core keeps.
	Book speculation.Book

	active []*jobState
	byID   map[cluster.JobID]*jobState
	done   []*cluster.Job

	// Cluster-wide live-copy counts by kind, for engines with separate
	// pools (Budgeted).
	freshUsage int
	specUsage  int

	// dispatch is the engine-specific slot-filling loop.
	dispatch func()

	// capacitySpec enables Hopper's capacity-driven speculation: a job
	// given more slots than its queued work races its worst observable
	// straggler with the surplus (the allocation *is* the speculation
	// budget; Section 4.1 and Figure 3). Set by the Hopper engine;
	// best-effort baselines leave it off.
	capacitySpec bool

	// dispatchDelay coalesces dispatch requests: completions arriving
	// within the window trigger a single slot-filling pass. Zero means
	// same-timestamp coalescing only.
	dispatchDelay   float64
	dispatchPending bool
	// runDispatch is the coalesced pass requestDispatch posts, bound
	// once so a request allocates nothing.
	runDispatch func()

	// dispatches and ticks are the engine lanes of the coalesced
	// dispatch and the speculation ticker: each posts at now plus its
	// own constant delay, so each stream is already in time order.
	dispatches *simulator.Lane
	ticks      *simulator.Lane

	// onArrive, when set, runs after a job is registered and before
	// dispatch (engines use it to refresh cached allocations).
	onArrive func()

	// onJobRemoved, when set, runs after a finished job leaves the
	// active set (the Hopper engine prunes its cached priority order).
	onJobRemoved func(s *jobState)

	// wantScratch is the reusable result buffer for speculation scans.
	wantScratch []*cluster.Task

	tickerOn bool
}

// newBase wires the chassis to an engine's executor and callbacks.
func newBase(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *Base {
	cfg = cfg.WithDefaults()
	b := &Base{
		Cfg:  cfg,
		Eng:  eng,
		Exec: exec,
		Book: speculation.NewBook(cfg.Spec, betaWarmup),
		byID: make(map[cluster.JobID]*jobState),

		dispatches: eng.NewLane(),
		ticks:      eng.NewLane(),
	}
	b.runDispatch = func() {
		b.dispatchPending = false
		b.dispatch()
	}
	exec.OnTaskDone = b.onTaskDone
	exec.OnPhaseRunnable = b.onPhaseRunnable
	exec.OnJobDone = b.onJobDone
	return b
}

// onPhaseRunnable credits the job's fresh-demand counter with the
// phase's (never yet scheduled) tasks and triggers a dispatch pass. The
// credit happens exactly once because phase wakeup delivery is
// exactly-once; the book's phase credit asserts that contract.
func (b *Base) onPhaseRunnable(p *cluster.Phase) {
	if s := b.byID[p.Job.ID]; s != nil {
		if !b.Book.PhaseRunnable(&s.JobBook, p) {
			panic(fmt.Sprintf("scheduler: duplicate OnPhaseRunnable for job%d/phase%d — unlock lifecycle violated",
				p.Job.ID, p.Index))
		}
		s.fresh += p.UnscheduledTasks()
	}
	b.requestDispatch()
}

// requestDispatch schedules a coalesced dispatch pass.
func (b *Base) requestDispatch() {
	if b.dispatchPending {
		return
	}
	b.dispatchPending = true
	b.dispatches.PostAfter(b.dispatchDelay, b.runDispatch)
}

// Completed returns the finished jobs in completion order.
func (b *Base) Completed() []*cluster.Job { return b.done }

// ActiveJobs returns the number of jobs admitted and not yet finished.
func (b *Base) ActiveJobs() int { return len(b.active) }

// Arrive admits a job: registers state, unlocks root phases, dispatches.
func (b *Base) Arrive(j *cluster.Job) {
	s := &jobState{JobBook: b.Book.NewJob(j)}
	b.active = append(b.active, s)
	b.byID[j.ID] = s
	if b.onArrive != nil {
		b.onArrive()
	}
	b.Exec.AdmitJob(j) // fires OnPhaseRunnable -> dispatch
	b.ensureTicker()
}

// ensureTicker starts the periodic speculation scan if it is not running.
func (b *Base) ensureTicker() {
	if b.tickerOn || b.Cfg.DisableSpec {
		return
	}
	b.tickerOn = true
	var tick func()
	tick = func() {
		if len(b.active) == 0 {
			b.tickerOn = false
			return
		}
		b.scanAll()
		b.ticks.PostAfter(b.Cfg.CheckInterval, tick)
	}
	b.ticks.PostAfter(b.Cfg.CheckInterval, tick)
}

// scanAll runs the speculation policy over every active job and
// dispatches if any new wants appeared.
func (b *Base) scanAll() {
	added := false
	for _, s := range b.active {
		if b.scanJob(s) {
			added = true
		}
	}
	if added {
		b.requestDispatch()
	}
}

// scanJob queues the tasks of one job the policy newly wants to
// speculate (right away on its task completions, and from scanAll) and
// reports whether there were any.
func (b *Base) scanJob(s *jobState) bool {
	if b.Cfg.DisableSpec {
		return false
	}
	b.wantScratch = b.Book.Scan(b.Eng.Now(), &s.JobBook, false, b.wantScratch)
	return len(b.wantScratch) > 0
}

func (b *Base) onTaskDone(t *cluster.Task, winner *cluster.Copy) {
	s := b.taskDone(t, winner)
	b.scanJob(s)
	b.requestDispatch()
}

// taskDone settles a finished task in the book and in the chassis' own
// counters, and returns its job. The job is registered: it leaves only at
// its completion, which comes after its last task's.
func (b *Base) taskDone(t *cluster.Task, winner *cluster.Copy) *jobState {
	s := b.byID[t.Job.ID]
	b.Book.TaskDone(&s.JobBook, t, winner)
	for _, c := range t.Copies {
		if c.Speculative {
			b.specUsage--
		} else {
			b.freshUsage--
		}
	}
	if len(t.Copies) >= b.Cfg.Spec.MaxCopies {
		s.atCap--
	}
	return s
}

func (b *Base) onJobDone(j *cluster.Job) {
	s := b.byID[j.ID]
	// A centralized copy is never lost, so every slot comes back at its
	// task's completion: a leftover is always a bug.
	if left := b.Book.JobDone(&s.JobBook, j); left != 0 {
		panic(fmt.Sprintf("scheduler: job%d finished holding %d slots — occupancy leaked", j.ID, left))
	}
	delete(b.byID, j.ID)
	// Order-preserving removal: the active order is the stable-sort
	// tie-break for every engine's priority order, so it must stay the
	// arrival order of the surviving jobs.
	for i, as := range b.active {
		if as == s {
			b.active = append(b.active[:i], b.active[i+1:]...)
			break
		}
	}
	if b.onJobRemoved != nil {
		b.onJobRemoved(s)
	}
	b.done = append(b.done, j)
	// dispatch runs from the task-completion path that triggered this.
}

// placeFresh starts the job's next fresh task (locality-aware machine
// choice). Returns false when the job has no fresh task or no slot is
// free; the fresh counter answers the first without a phase walk.
func (b *Base) placeFresh(s *jobState) bool {
	if s.fresh == 0 {
		return false
	}
	t := s.nextFresh()
	if t == nil {
		return false
	}
	if c := b.Exec.Place(t, false); c == nil {
		return false
	}
	s.fresh--
	b.copyPlaced(s, t, false)
	return true
}

// copyPlaced records a copy of t the executor just started, original or
// speculative: in the book (the slot and, for an original, the running
// set — the copy has landed, so this is also where the victim index keys
// the task; the chassis never loses a copy, so it owes the monitor no
// CopyPlaced or CopyDropped), in the at-cap count and in its pool's
// counter. Every copy of a running task is live (copies end only at task
// completion, onTaskDone), so the copy count is the live count.
func (b *Base) copyPlaced(s *jobState, t *cluster.Task, spec bool) {
	b.Book.HandedOut(&s.JobBook, t, spec)
	if len(t.Copies) == b.Cfg.Spec.MaxCopies {
		s.atCap++
	}
	if spec {
		b.specUsage++
	} else {
		b.freshUsage++
	}
}

// placeSpec starts a speculative copy for the job's oldest valid want.
func (b *Base) placeSpec(s *jobState) bool {
	t := b.Book.TakeWant(&s.JobBook, nil)
	if t == nil {
		return false
	}
	if c := b.Exec.Place(t, true); c == nil {
		// No free slot; requeue at the front so it is retried first.
		s.RetryWant(t)
		return false
	}
	b.copyPlaced(s, t, true)
	return true
}

// placeOne places one unit of the job's demand: fresh work first, then a
// speculative copy (matching deployed systems, which speculate at wave
// boundaries). With capacitySpec, a job with leftover allocation races
// its worst observable straggler even when the policy has flagged none.
func (b *Base) placeOne(s *jobState) bool {
	if b.placeFresh(s) {
		return true
	}
	if b.placeSpec(s) {
		return true
	}
	if !b.capacitySpec || b.Cfg.DisableSpec {
		return false
	}
	v := b.Book.BestVictim(b.Eng.Now(), &s.JobBook)
	if v == nil {
		return false
	}
	if c := b.Exec.Place(v, true); c == nil {
		return false
	}
	b.copyPlaced(s, v, true)
	return true
}

// hasLocalFresh reports whether the job's next runnable phases contain an
// unscheduled task whose input is local on some machine with a free slot.
func (b *Base) hasLocalFresh(s *jobState) bool {
	if s.fresh == 0 {
		return false
	}
	for _, p := range s.Job.RunnablePhases() {
		t := p.NextUnscheduled()
		if t == nil {
			continue
		}
		if len(t.Replicas) == 0 {
			return true // no preference: every machine is "local"
		}
		for _, m := range t.Replicas {
			if b.Exec.Machines.Get(m).Free > 0 {
				return true
			}
		}
	}
	return false
}
