// Package scheduler implements the centralized scheduling engines the
// paper builds and compares (Sections 4, 6.2, 7.4):
//
//   - Hopper: speculation-aware allocation per Guidelines 1-3 with
//     epsilon-fairness, DAG weighting, and locality relaxation.
//   - SRPT: shortest remaining processing time with best-effort
//     speculation (the paper's aggressive centralized baseline).
//   - Fair: equal sharing with best-effort speculation.
//   - Budgeted: SRPT with a fixed slot budget reserved for speculation
//     (the second strawman of Section 3.1).
//
// All engines share a chassis (Base) that owns job lifecycle, running-task
// bookkeeping, speculation scanning, and online beta estimation; engines
// differ only in how they pick the next (job, task) for a free slot.
package scheduler

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/estimate"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/stats"
)

// Config bundles the knobs shared by all centralized engines.
type Config struct {
	// Spec configures straggler detection (policy, copy cap, delay).
	Spec speculation.Config

	// Epsilon is the fairness allowance of Section 4.3 (Hopper engine
	// only). The paper's default is 0.1.
	Epsilon float64

	// LocalityK is the locality relaxation window in percent of active
	// jobs (Section 4.4, Hopper engine only). The paper uses 3.
	LocalityK float64

	// CheckInterval is the period (seconds) of the speculation scan.
	// Default 1.0; interactive (Spark-like) workloads use smaller values.
	CheckInterval float64

	// BetaPrior seeds the online tail estimator before enough tasks
	// complete. Default 1.5.
	BetaPrior float64

	// SpecBudget is the reserved speculation pool size for the Budgeted
	// engine; ignored elsewhere.
	SpecBudget int

	// DisableSpec turns straggler mitigation off entirely (ablations).
	DisableSpec bool

	// CapacitySpec enables Hopper's capacity-driven speculation: a job
	// given more slots than its queued work races its worst observable
	// straggler with the surplus (the allocation *is* the speculation
	// budget; Section 4.1 and Figure 3). Set by the Hopper engine;
	// best-effort baselines leave it off.
	CapacitySpec bool
}

// WithDefaults fills zero-valued fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	c.Spec = c.Spec.WithDefaults()
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.LocalityK == 0 {
		c.LocalityK = 3
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 1.0
	}
	if c.BetaPrior == 0 {
		c.BetaPrior = 1.5
	}
	return c
}

// Engine is a centralized scheduler. Jobs are admitted with Arrive; the
// engine then drives the Executor until the job completes.
type Engine interface {
	// Name identifies the engine in experiment reports.
	Name() string
	// Arrive admits a job at the current simulation time.
	Arrive(j *cluster.Job)
	// Completed returns all jobs that have finished so far.
	Completed() []*cluster.Job
}

// jobState is the chassis' bookkeeping for one active job.
//
// Invariants (the incremental-state contract, DESIGN.md section 6):
//   - fresh always equals the phase-scan count of never-scheduled tasks
//     in runnable phases (maintained on phase-runnable and fresh
//     placement; TestFreshCounterMatchesScan checks it against the scan
//     on every dispatch, and dispatch_diff_test.go covers it end to end
//     through placement-log identity);
//   - the non-nil entries of running are exactly the tasks with a live
//     copy, in placement order;
//   - wants holds each policy-flagged task at most once (membership is
//     the Task.SpecWanted scratch flag), in request order, with the
//     retry-requeue at the front;
//   - atCap always equals the number of running tasks at the copy cap
//     (maintained on every placement and on task completion;
//     TestAtCapCounterMatchesScan checks it against the loop on every
//     dispatch).
type jobState struct {
	job *cluster.Job

	// running holds tasks with at least one live copy, in placement
	// order (cluster.RunningSet: O(1) tombstone removal via
	// Task.SchedPos). Consumers — speculation scans, victim search,
	// reservation counting — iterate running.Tasks() and skip nils, so
	// the live order is exactly what the plain slice maintained.
	running cluster.RunningSet

	// wants is the FIFO queue of tasks the speculation policy asked to
	// duplicate and that have not yet received a speculative copy. A
	// ring deque: the place-failure retry re-queues at the front in O(1)
	// instead of allocating a fresh slice per retry. Membership is the
	// Task.SpecWanted scratch flag (one scheduler owns each task), not a
	// per-job map.
	wants cluster.TaskDeque

	// usage counts live copies across the job (slot occupancy).
	usage int

	// fresh counts never-scheduled tasks in runnable phases — the cached
	// form of the per-dispatch phase rescan.
	fresh int

	// atCap counts running tasks at the copy cap — the cached form of the
	// Hopper engine's per-dispatch walk over the running set, which sizes
	// its hold from the tasks still below the cap.
	atCap int

	// credited is a debug assertion, not a dedup guard: the executor
	// delivers OnPhaseRunnable exactly once per phase (the cluster
	// lifecycle guarantees it), so a second credit is always a bug and
	// panics instead of silently corrupting demand accounting.
	credited cluster.PhaseSet

	// target and prio cache the Hopper engine's guideline allocation and
	// DAG-aware priority for this job, rewritten by HopperEngine.refresh.
	// Unused by the other engines.
	target int
	prio   float64
}

// freshDemand counts never-scheduled tasks in runnable phases.
func (s *jobState) freshDemand() int { return s.fresh }

// freshDemandScan recomputes freshDemand from the phases — the reference
// implementation and the invariant oracle for the cached counter.
func (s *jobState) freshDemandScan() int {
	n := 0
	for _, p := range s.job.RunnablePhasesScan() {
		n += p.UnscheduledTasks()
	}
	return n
}

// belowCap counts running tasks that could still take a speculative
// copy.
func (s *jobState) belowCap() int { return s.running.Len() - s.atCap }

// belowCapScan recomputes belowCap from the running set — the loop the
// counter replaced, and its invariant oracle.
func (s *jobState) belowCapScan(maxCopies int) int {
	n := 0
	for _, t := range s.running.Tasks() {
		if t != nil && t.RunningCopies() < maxCopies {
			n++
		}
	}
	return n
}

// demand is total placeable units: fresh tasks plus pending spec wants.
func (s *jobState) demand() int { return s.fresh + s.wants.Len() }

// nextFresh returns the next unscheduled task in the earliest runnable
// phase, or nil.
func (s *jobState) nextFresh() *cluster.Task {
	for _, p := range s.job.RunnablePhases() {
		if t := p.NextUnscheduled(); t != nil {
			return t
		}
	}
	return nil
}

// popWant dequeues the next pending speculation target that is still
// running and below the copy cap; stale entries are discarded.
func (s *jobState) popWant(maxCopies int) *cluster.Task {
	for s.wants.Len() > 0 {
		t := s.wants.PopFront()
		t.SpecWanted = false
		if t.State == cluster.TaskRunning && t.RunningCopies() < maxCopies {
			return t
		}
	}
	return nil
}

// addWant records a deduplicated speculation request.
func (s *jobState) addWant(t *cluster.Task) bool {
	if t.SpecWanted {
		return false
	}
	t.SpecWanted = true
	s.wants.PushBack(t)
	return true
}

// Base is the shared chassis. Engines embed it and set dispatch.
type Base struct {
	Cfg   Config
	Eng   *simulator.Engine
	Exec  *cluster.Executor
	Mon   *speculation.Monitor
	Beta  *stats.TailEstimator
	Alpha *estimate.AlphaEstimator

	active []*jobState
	byID   map[cluster.JobID]*jobState
	done   []*cluster.Job

	// Cluster-wide live-copy counts by kind, for engines with separate
	// pools (Budgeted).
	freshUsage int
	specUsage  int

	// dispatch is the engine-specific slot-filling loop.
	dispatch func()

	// dispatchDelay coalesces dispatch requests: completions arriving
	// within the window trigger a single slot-filling pass. Zero means
	// same-timestamp coalescing only.
	dispatchDelay   float64
	dispatchPending bool

	// onArrive, when set, runs after a job is registered and before
	// dispatch (engines use it to refresh cached allocations).
	onArrive func()

	// onJobRemoved, when set, runs after a finished job leaves the
	// active set (the Hopper engine prunes its cached priority order).
	onJobRemoved func(s *jobState)

	// OnJobComplete, when set, observes each finished job.
	OnJobComplete func(j *cluster.Job)

	// candScratch is the reusable result buffer for speculation scans.
	candScratch []*cluster.Task

	tickerOn bool
}

// newBase wires the chassis to an engine's executor and callbacks.
func newBase(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *Base {
	cfg = cfg.WithDefaults()
	b := &Base{
		Cfg:   cfg,
		Eng:   eng,
		Exec:  exec,
		Mon:   speculation.NewMonitor(cfg.Spec, eng.Rand()),
		Beta:  stats.NewTailEstimator(1e-9, cfg.BetaPrior, 50),
		Alpha: estimate.NewAlphaEstimator(),
		byID:  make(map[cluster.JobID]*jobState),
	}
	exec.OnTaskDone = b.onTaskDone
	exec.OnPhaseRunnable = b.onPhaseRunnable
	exec.OnJobDone = b.onJobDone
	return b
}

// onPhaseRunnable credits the job's fresh-demand counter with the
// phase's (never yet scheduled) tasks and triggers a dispatch pass. The
// credit happens exactly once because phase wakeup delivery is
// exactly-once; the credited set asserts that contract.
func (b *Base) onPhaseRunnable(p *cluster.Phase) {
	if s := b.byID[p.Job.ID]; s != nil {
		if s.credited.Add(p) {
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
	b.Eng.PostAfter(b.dispatchDelay, func() {
		b.dispatchPending = false
		b.dispatch()
	})
}

// Completed returns the finished jobs in completion order.
func (b *Base) Completed() []*cluster.Job { return b.done }

// ActiveJobs returns the number of jobs admitted and not yet finished.
func (b *Base) ActiveJobs() int { return len(b.active) }

// Arrive admits a job: registers state, unlocks root phases, dispatches.
func (b *Base) Arrive(j *cluster.Job) {
	s := &jobState{job: j}
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
		b.Eng.PostAfter(b.Cfg.CheckInterval, tick)
	}
	b.Eng.PostAfter(b.Cfg.CheckInterval, tick)
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
	added := false
	b.candScratch = b.Mon.CandidatesFor(b.Eng.Now(), s.job.ID, b.candScratch)
	for _, t := range b.candScratch {
		if t.RunningCopies() < b.Cfg.Spec.MaxCopies && s.addWant(t) {
			added = true
		}
	}
	return added
}

func (b *Base) onTaskDone(t *cluster.Task, winner *cluster.Copy) {
	b.Beta.Observe(winner.Duration)
	b.Mon.TaskCompleted(t, winner)
	s := b.byID[t.Job.ID]
	if s == nil {
		return
	}
	// Every copy of the task ends at its completion event (winner plus
	// same-instant kills), so occupancy drops by the full copy count.
	s.usage -= len(t.Copies)
	for _, c := range t.Copies {
		if c.Speculative {
			b.specUsage--
		} else {
			b.freshUsage--
		}
	}
	s.running.Remove(t)
	if len(t.Copies) >= b.Cfg.Spec.MaxCopies {
		s.atCap--
	}
	if t.SpecWanted {
		t.SpecWanted = false
		s.wants.Remove(t)
	}
	b.scanJob(s)
	b.requestDispatch()
}

func (b *Base) onJobDone(j *cluster.Job) {
	b.Alpha.JobCompleted(j)
	b.Mon.JobDone(j)
	s := b.byID[j.ID]
	if s != nil {
		delete(b.byID, j.ID)
		// Order-preserving removal: the active order is the stable-sort
		// tie-break for every engine's priority order, so it must stay
		// the arrival order of the surviving jobs.
		for i, as := range b.active {
			if as == s {
				b.active = append(b.active[:i], b.active[i+1:]...)
				break
			}
		}
		if b.onJobRemoved != nil {
			b.onJobRemoved(s)
		}
	}
	b.done = append(b.done, j)
	if b.OnJobComplete != nil {
		b.OnJobComplete(j)
	}
	// dispatch runs from the task-completion path that triggered this.
}

// placeFresh starts the job's next fresh task (locality-aware machine
// choice). Returns false when the job has no fresh task or no slot is
// free.
func (b *Base) placeFresh(s *jobState) bool {
	t := s.nextFresh()
	if t == nil {
		return false
	}
	c := b.Exec.Place(t, false)
	if c == nil {
		return false
	}
	s.running.Add(t)
	// The copy is placed before the hand-out is recorded, so this is also
	// where the victim index keys the task; the chassis never loses a copy,
	// so it owes the monitor no CopyPlaced or CopyDropped.
	b.Mon.TaskHandedOut(t)
	s.fresh--
	b.copyPlaced(s, t)
	b.freshUsage++
	return true
}

// copyPlaced settles the job's occupancy for a copy of t the executor
// just started. Every copy of a running task is live (copies end only at
// task completion, onTaskDone), so the copy count is the live count.
func (b *Base) copyPlaced(s *jobState, t *cluster.Task) {
	s.usage++
	if len(t.Copies) == b.Cfg.Spec.MaxCopies {
		s.atCap++
	}
}

// placeSpec starts a speculative copy for the job's oldest valid want.
func (b *Base) placeSpec(s *jobState) bool {
	t := s.popWant(b.Cfg.Spec.MaxCopies)
	if t == nil {
		return false
	}
	if c := b.Exec.Place(t, true); c == nil {
		// No free slot; requeue at the front so it is retried first.
		s.wants.PushFront(t)
		t.SpecWanted = true
		return false
	}
	b.copyPlaced(s, t)
	b.specUsage++
	return true
}

// placeOne places one unit of the job's demand: fresh work first, then a
// speculative copy (matching deployed systems, which speculate at wave
// boundaries). With CapacitySpec, a job with leftover allocation races
// its worst observable straggler even when the policy has flagged none.
func (b *Base) placeOne(s *jobState) bool {
	if b.placeFresh(s) {
		return true
	}
	if b.placeSpec(s) {
		return true
	}
	if !b.Cfg.CapacitySpec || b.Cfg.DisableSpec {
		return false
	}
	v := b.Mon.BestVictimFor(b.Eng.Now(), s.job.ID)
	if v == nil {
		return false
	}
	if c := b.Exec.Place(v, true); c == nil {
		return false
	}
	b.copyPlaced(s, v)
	b.specUsage++
	return true
}

// hasLocalFresh reports whether the job's next runnable phases contain an
// unscheduled task whose input is local on some machine with a free slot.
func (b *Base) hasLocalFresh(s *jobState) bool {
	if s.fresh == 0 {
		return false
	}
	for _, p := range s.job.RunnablePhases() {
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
