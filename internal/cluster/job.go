// Package cluster models the compute substrate Hopper schedules on:
// machines with task slots, jobs structured as DAGs of phases, tasks that
// may run as multiple racing copies (originals and speculative re-executions),
// and an execution model in which per-copy service times are heavy-tailed —
// the tail *is* the straggler phenomenon, exactly as in the paper's
// analysis (Section 4.1).
//
// The package is substrate only: it executes whatever copies a scheduler
// places, enforces slot capacity, resolves races between copies, and
// reports completions. All policy (which job gets a slot, whether a slot
// runs a fresh task or a speculative copy) lives in the scheduler packages.
package cluster

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/simulator"
)

// JobID identifies a job within one simulation run.
type JobID int

// MachineID indexes a machine in the cluster.
type MachineID int

// TaskState is the lifecycle state of a task (not of an individual copy).
type TaskState uint8

// Task lifecycle: a task is created Unscheduled, becomes Running when its
// first copy is placed, and Done when any copy finishes.
const (
	TaskUnscheduled TaskState = iota
	TaskRunning
	TaskDone
)

// Copy is one execution attempt of a task on a specific machine. A task
// has one original copy and possibly speculative copies racing it. It is
// the one record of a copy on both planes: the simulator's Executor and
// the live scheduler each keep it in Task.Copies and end it through
// Task.Win or Task.DropCopy.
type Copy struct {
	Task    *Task
	Machine MachineID
	Start   simulator.Time
	// Duration is the service time drawn at placement. It is hidden from
	// scheduling policies until the progress-observation delay elapses;
	// see speculation.Observer.
	Duration simulator.Time

	// Speed is the service-rate factor of the machine this copy runs on,
	// stamped at placement by whichever adapter owns the machine record.
	// Duration/Remaining/Elapsed are wall-clock; multiplying them by
	// Speed recovers baseline-speed work, which is the unit progress
	// estimators compare in (speculation, alpha). StartCopy defaults it
	// to 1, so homogeneous paths multiply by exactly 1.0 — a float no-op.
	// The zero value also reads as 1 (SpeedFactor), so hand-built copies
	// behave homogeneously.
	Speed float64

	// Seq is the live worker's number for the offer that placed this
	// copy: with Machine it names the copy on the wire. Zero in the
	// simulator.
	Seq uint64

	// The three flags and the finish handle share one word, keeping a
	// Copy at 56 bytes. Copies are carved from per-phase slabs
	// (StartCopy), so this size is the slab's stride: every field added
	// here grows every phase's slab.
	Speculative bool
	// Killed is set when the copy ended without finishing: a sibling won
	// the race, or the copy was lost with its machine.
	Killed bool
	// Won is set on the copy that completed the task.
	Won bool

	// finish is the Executor's cancellation handle for this copy's
	// finish event, armed by Engine.AtArg at placement.
	finish simulator.Event
}

// SpeedFactor is Speed with the zero value normalized to the homogeneous
// default of 1, mirroring how a zero Resources demand means "fits
// anywhere": the factor every Work* method multiplies by.
func (c *Copy) SpeedFactor() simulator.Time {
	if c.Speed > 0 {
		return simulator.Time(c.Speed)
	}
	return 1
}

// Finish returns the absolute time this copy would complete if not killed.
func (c *Copy) Finish() simulator.Time { return c.Start + c.Duration }

// Elapsed returns how long the copy has been running at time now.
func (c *Copy) Elapsed(now simulator.Time) simulator.Time { return now - c.Start }

// Remaining returns the true remaining service time at time now. Policies
// must not use this directly; they see it only through the observation
// model in the speculation package.
func (c *Copy) Remaining(now simulator.Time) simulator.Time {
	r := c.Finish() - now
	if r < 0 {
		return 0
	}
	return r
}

// WorkRemaining is the copy's remaining baseline-speed work at time now:
// wall-clock remaining scaled by the machine's speed factor. Estimators
// compare work, not wall-clock, so a fast machine's short tail and a
// slow machine's long tail rank correctly against a fresh copy.
func (c *Copy) WorkRemaining(now simulator.Time) simulator.Time {
	return c.Remaining(now) * c.SpeedFactor()
}

// WorkDuration is the copy's total service time in baseline-speed work
// units (Duration * Speed) — what the same draw would have taken on a
// speed-1 machine.
func (c *Copy) WorkDuration() simulator.Time { return c.Duration * c.SpeedFactor() }

// WorkElapsed is the baseline-speed work completed by time now.
func (c *Copy) WorkElapsed(now simulator.Time) simulator.Time {
	return c.Elapsed(now) * c.SpeedFactor()
}

// Task is a unit of work inside a phase. Tasks may have replica locality
// preferences (input phases) and may be executed by several racing copies.
type Task struct {
	Job   *Job
	Phase *Phase
	Index int // position within the phase

	// Replicas are machines holding the task's input data. Empty for
	// tasks without locality preference (non-input phases).
	Replicas []MachineID

	// Demand is the per-copy resource demand. NewJob defaults it to the
	// phase's Demand when left zero, so workloads usually declare demand
	// at phase granularity; the zero vector means "fits any slot" and is
	// what every homogeneous workload carries.
	Demand Resources

	State TaskState
	// SpecWanted is scheduler-owned scratch (a task belongs to exactly one
	// scheduler per simulation): true exactly while the task sits in its
	// job's speculation want queue. Only speculation.JobBook sets or
	// clears it; the victim index reads it, dropping a queued task's
	// entry until the want is taken. A field instead of a per-job
	// map[*Task]bool makes want-dedup a load instead of a hash lookup
	// and removes the map allocation per job. The cluster package never
	// reads it. (It sits next to State so the two share a word.)
	SpecWanted bool
	Copies     []*Copy
	DoneAt     simulator.Time

	// VictimPos and VictimCopy are scheduler-owned scratch with the same
	// single-owner contract, kept by the speculation monitor's victim
	// index, which is the scheduler's running set. VictimPos is the task's
	// hand-out rank within its job, assigned when the scheduler hands it
	// out under a copy cap above one (0 otherwise, and again once it
	// completes or is requeued): it reproduces the scan's
	// first-in-hand-out-order tie-break exactly. VictimCopy is the copy
	// the index currently keys the task by, nil while it has no entry.
	// The cluster package never reads either.
	VictimPos  int
	VictimCopy *Copy
}

// ID returns a human-readable identifier for logs and errors.
func (t *Task) ID() string {
	return fmt.Sprintf("job%d/phase%d/task%d", t.Job.ID, t.Phase.Index, t.Index)
}

// RunningCopies returns the number of live (not killed, not finished)
// copies at the moment of the call.
func (t *Task) RunningCopies() int {
	n := 0
	for _, c := range t.Copies {
		if !c.Killed && !c.Won && t.State != TaskDone {
			n++
		}
	}
	if t.State == TaskDone {
		return 0
	}
	return n
}

// LocalOn reports whether machine m holds one of the task's input
// replicas. Tasks with no replica list run equally well anywhere.
func (t *Task) LocalOn(m MachineID) bool {
	if len(t.Replicas) == 0 {
		return true
	}
	for _, r := range t.Replicas {
		if r == m {
			return true
		}
	}
	return false
}

// PhaseState is the lifecycle state of a phase. Transitions are strictly
// forward and each happens exactly once:
//
//	PhaseLocked --------> PhaseUnlockPending --------> PhaseRunnable --> PhaseDone
//	  (last dependency completes;      (pipelined transfer
//	   unlock planned, Job.CompleteTask)  catches up; MarkRunnable)
//
// Root phases skip UnlockPending: admission transitions them straight to
// PhaseRunnable. The explicit UnlockPending state is what makes wakeup
// delivery exactly-once: a phase whose transfer-gated wakeup is in
// flight is never re-planned when a sibling phase completes.
type PhaseState uint8

const (
	// PhaseLocked: at least one dependency has not completed.
	PhaseLocked PhaseState = iota
	// PhaseUnlockPending: all dependencies are done and the unlock has
	// been planned; the pipelined-transfer wakeup is in flight.
	PhaseUnlockPending
	// PhaseRunnable: tasks are schedulable.
	PhaseRunnable
	// PhaseDone: every task has completed.
	PhaseDone
)

// Phase is a set of tasks with identical structure inside a job's DAG.
// A phase becomes runnable when all its dependencies have completed and
// its (pipelined) input transfer has caught up.
type Phase struct {
	Job   *Job
	Index int
	Tasks []*Task

	// Deps lists phase indices that must complete before this phase runs.
	Deps []int

	// MeanTaskDuration is the expected service time of this phase's tasks
	// (seconds); per-copy durations are Pareto draws with this mean.
	MeanTaskDuration float64

	// TransferWork is the total network work (slot-seconds) needed to
	// move this phase's input data from its upstream phases — the
	// "remaining work in communication" of the paper's alpha. The
	// transfer is pipelined: it begins when the first upstream task
	// finishes, and this phase's tasks pull their partitions in
	// parallel, so the wall-clock gating is TransferWork divided by the
	// phase's task count. Zero for input phases.
	TransferWork float64

	// Demand is the default per-copy resource demand for this phase's
	// tasks (see Task.Demand). Zero means the tasks fit any slot.
	Demand Resources

	// State is the phase's lifecycle position; see PhaseState. RunnableAt
	// is stamped when the unlock is planned (UnlockPending) with the time
	// the pipelined transfer permits execution.
	State      PhaseState
	RunnableAt simulator.Time

	next        int // lower bound on the smallest unscheduled task index
	unscheduled int // count of tasks never scheduled; maintained by Executor
	doneTasks   int
	firstDone   simulator.Time // completion time of this phase's first task
	anyDone     bool
	DoneAt      simulator.Time

	// copies is the unused rest of the slab StartCopy takes this phase's
	// copies from, and carved how many copies its slabs have held so
	// far; both stay zero until the phase's first placement.
	copies []Copy
	carved int
}

// Done reports whether every task in the phase has completed.
func (p *Phase) Done() bool { return p.doneTasks == len(p.Tasks) }

// RemainingTasks returns the number of tasks not yet Done.
func (p *Phase) RemainingTasks() int { return len(p.Tasks) - p.doneTasks }

// UnscheduledTasks returns how many tasks have never had a copy placed.
func (p *Phase) UnscheduledTasks() int { return p.unscheduled }

// advanceCursor moves the lower-bound cursor past scheduled tasks.
func (p *Phase) advanceCursor() {
	for p.next < len(p.Tasks) && p.Tasks[p.next].State != TaskUnscheduled {
		p.next++
	}
}

// NextUnscheduled returns the next never-scheduled task, or nil when all
// tasks have at least one copy.
func (p *Phase) NextUnscheduled() *Task {
	p.advanceCursor()
	if p.next < len(p.Tasks) {
		return p.Tasks[p.next]
	}
	return nil
}

// Job is a user job: a DAG of phases. Arrival and completion times are in
// simulation seconds.
type Job struct {
	ID      JobID
	Name    string // recurring-job family; used for alpha estimation
	Arrival simulator.Time
	Phases  []*Phase

	DoneAt  simulator.Time
	started bool
	StartAt simulator.Time

	donePhases int

	// runnable caches the phases that are Runnable && !Done, in phase-
	// index order. Maintained by markRunnable/markPhaseDone (driven by the
	// Executor), so RunnablePhases is a slice read instead of a per-call
	// scan-and-allocate — it sits on every scheduler hot path (demand
	// counting, virtual sizes, locality checks).
	runnable []*Phase
}

// NewTasks returns n zero tasks that share one backing slab, so a phase
// of n tasks costs two allocations instead of n+1. The slab lives as
// long as any of its tasks, which is as long as the phase does anyway.
func NewTasks(n int) []*Task {
	slab := make([]Task, n)
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = &slab[i]
	}
	return tasks
}

// PackReplicas sets tasks[i].Replicas to the machines list(i) names, for
// every task. The lists share one backing array, each capped at its own
// end, so an append to one task's list reallocates instead of writing
// into its neighbour's. A task whose list is empty keeps nil.
func PackReplicas[M ~int | ~uint32](tasks []*Task, list func(i int) []M) {
	n := 0
	for i := range tasks {
		n += len(list(i))
	}
	buf := make([]MachineID, 0, n)
	for i, t := range tasks {
		l := list(i)
		if len(l) == 0 {
			continue
		}
		start := len(buf)
		for _, m := range l {
			buf = append(buf, MachineID(m))
		}
		t.Replicas = buf[start:len(buf):len(buf)]
	}
}

// NewJob builds a job from phase specifications, wiring parent pointers.
func NewJob(id JobID, name string, arrival simulator.Time, phases []*Phase) *Job {
	j := &Job{ID: id, Name: name, Arrival: arrival, Phases: phases}
	for i, p := range phases {
		p.Job = j
		p.Index = i
		p.unscheduled = len(p.Tasks)
		for k, t := range p.Tasks {
			t.Job = j
			t.Phase = p
			t.Index = k
			if t.Demand.IsZero() {
				t.Demand = p.Demand
			}
		}
	}
	return j
}

// Done reports whether all phases have completed.
func (j *Job) Done() bool { return j.donePhases == len(j.Phases) }

// TotalTasks returns the task count across all phases.
func (j *Job) TotalTasks() int {
	n := 0
	for _, p := range j.Phases {
		n += len(p.Tasks)
	}
	return n
}

// RemainingTasksTotal counts unfinished tasks across the whole DAG; this
// is the quantity classic SRPT uses as "remaining processing".
func (j *Job) RemainingTasksTotal() int {
	n := 0
	for _, p := range j.Phases {
		n += p.RemainingTasks()
	}
	return n
}

// RunnablePhases returns phases that are runnable and unfinished — the
// "current" phases in the paper's terminology (more than one for bushy
// DAGs). The returned slice is the job's maintained cache: callers must
// treat it as read-only and must not retain it across simulation events.
func (j *Job) RunnablePhases() []*Phase {
	return j.runnable
}

// RunnablePhasesScan recomputes the runnable set by scanning all phases,
// allocating a fresh slice. It exists for the frozen reference dispatch
// implementations (scheduler package), which must reproduce the pre-
// overhaul cost profile, and as the oracle the cache is tested against.
func (j *Job) RunnablePhasesScan() []*Phase {
	var out []*Phase
	for _, p := range j.Phases {
		if p.State == PhaseRunnable && !p.Done() {
			out = append(out, p)
		}
	}
	return out
}

// markRunnable records p's transition into the runnable set. Insertion
// keeps phase-index order, matching the scan the cache replaces (bushy
// DAGs can unlock phases out of index order).
func (j *Job) markRunnable(p *Phase) {
	i := len(j.runnable)
	for i > 0 && j.runnable[i-1].Index > p.Index {
		i--
	}
	j.runnable = append(j.runnable, nil)
	copy(j.runnable[i+1:], j.runnable[i:])
	j.runnable[i] = p
}

// MarkRunnable transitions the phase into the runnable state and updates
// the owning job's runnable cache. All transitions into PhaseRunnable
// must go through here; setting the field directly leaves the cache
// stale (tests that do so anyway must call Job.RecomputeRunnable).
// Wakeup delivery is exactly-once (UnlockPlanner), so a second
// transition is always a lifecycle bug and panics.
func (p *Phase) MarkRunnable() {
	if p.State == PhaseRunnable || p.State == PhaseDone {
		panic(fmt.Sprintf("cluster: duplicate MarkRunnable for job%d/phase%d (state %d)",
			p.Job.ID, p.Index, p.State))
	}
	p.State = PhaseRunnable
	p.Job.markRunnable(p)
}

// RecomputeRunnable rebuilds the runnable cache from the phase states.
// The simulation maintains the cache incrementally; this is the escape
// hatch for tests that poke Phase.State directly.
func (j *Job) RecomputeRunnable() {
	j.runnable = j.runnable[:0]
	for _, p := range j.Phases {
		if p.State == PhaseRunnable && !p.Done() {
			j.runnable = append(j.runnable, p)
		}
	}
}

// markPhaseDone transitions a completed phase to PhaseDone and removes
// it from the runnable cache.
func (j *Job) markPhaseDone(p *Phase) {
	p.State = PhaseDone
	for i, q := range j.runnable {
		if q == p {
			j.runnable = append(j.runnable[:i], j.runnable[i+1:]...)
			return
		}
	}
}

// RemainingCurrentTasks counts unfinished tasks in runnable phases; this
// is T_i(t) in the paper's virtual-size rule.
func (j *Job) RemainingCurrentTasks() int {
	n := 0
	for _, p := range j.RunnablePhases() {
		n += p.RemainingTasks()
	}
	return n
}

// StartCopy records a new copy of the task on machine m: it appends the
// Copy and performs the task/phase/job state transitions of first
// placement. Win and DropCopy are the two ways a copy ends. None of the
// three owns an execution-side concern (slot accounting, completion
// events, frames): the simulator's Executor layers those on top, and the
// live scheduler drives the same calls from wire messages.
//
// The Copy comes from its phase's slab (newCopy), and a task's first
// copy gives it a Copies list of capacity 2 carved from a per-phase
// pointer slab, so a placement allocates nothing once its phase has
// started. A third copy outgrows the list, and append moves that task
// alone to an array of its own.
func (t *Task) StartCopy(now simulator.Time, m MachineID, speculative bool, dur float64) *Copy {
	c := t.Phase.newCopy()
	*c = Copy{
		Task:        t,
		Machine:     m,
		Speculative: speculative,
		Start:       now,
		Duration:    dur,
		Speed:       1,
	}
	t.Copies = append(t.Copies, c)
	if t.State == TaskUnscheduled {
		t.State = TaskRunning
		t.Phase.unscheduled--
		t.Phase.advanceCursor()
		if !t.Job.started {
			t.Job.started = true
			t.Job.StartAt = now
		}
	}
	return c
}

// newCopy takes the next Copy from the phase's slab. The first slab,
// carved at the phase's first placement, holds one copy per task; each
// later one a quarter of all copies carved so far, so a phase that runs
// many speculative or replaced copies still allocates amortized nothing
// per copy, and at most a fifth of what the slabs hold goes unused.
// The first carve also hands every task still without a Copies list
// its two slots of one shared pointer slab (a[i:i:i+2], the
// PackReplicas idiom), so set-up and cloning pay for neither.
func (p *Phase) newCopy() *Copy {
	if len(p.copies) == 0 {
		n := p.carved / 4
		if p.carved == 0 {
			n = len(p.Tasks)
			ptrs := make([]*Copy, 2*n)
			for i, t := range p.Tasks {
				if cap(t.Copies) == 0 {
					t.Copies = ptrs[2*i : 2*i : 2*i+2]
				}
			}
		}
		n = max(n, 1)
		p.copies = make([]Copy, n)
		p.carved += n
	}
	c := &p.copies[0]
	p.copies = p.copies[1:]
	return c
}

// Win settles the task's copy race: c is marked Won, the task Done at
// now, and every other copy still running is marked Killed and handed to
// loser, in placement order — the plane's consequence of losing (the
// Executor cancels the finish event and reclaims the slot; the live
// scheduler sends a Kill frame).
func (t *Task) Win(c *Copy, now simulator.Time, loser func(*Copy)) {
	c.Won = true
	t.State = TaskDone
	t.DoneAt = now
	for _, sib := range t.Copies {
		if sib == c || sib.Killed || sib.Won {
			continue
		}
		sib.Killed = true
		loser(sib)
	}
}

// DropCopy ends a copy that died without finishing (its machine left,
// its worker rejected or never reported it): it is marked Killed and
// taken out of the task's copies, so the race and the occupancy settled
// at win time never count it.
func (t *Task) DropCopy(c *Copy) {
	c.Killed = true
	for i, x := range t.Copies {
		if x == c {
			t.Copies = append(t.Copies[:i], t.Copies[i+1:]...)
			return
		}
	}
}

// PhaseUnlock pairs a phase whose dependencies just completed with the
// time its pipelined input transfer allows it to start.
type PhaseUnlock struct {
	Phase *Phase
	At    simulator.Time
}

// transferOverlapFactor is how much of a phase's per-task transfer share
// is hidden by pipelining with the upstream phase and by overlap with the
// downstream tasks' own shuffle reads. Only 1/factor of the share gates
// the phase start.
const transferOverlapFactor = 4.0

// CompleteTask performs the phase/job completion bookkeeping for a task
// whose winning copy finished at now (the caller marks the copy Won and
// the task Done first). It reports whether the job just finished and
// appends to dst the phases whose dependencies just became all complete,
// each stamped PhaseUnlockPending with the start time its pipelined
// transfer permits; the caller marks those runnable at their unlock
// times (engine post in the simulator, timer in a live node) —
// adapters drive this through cluster.UnlockPlanner rather than by
// hand. Each phase is planned exactly once: it appears in dst only on
// the call that completed its last dependency.
func (j *Job) CompleteTask(t *Task, now simulator.Time, dst []PhaseUnlock) (jobDone bool, unlocks []PhaseUnlock) {
	p := t.Phase
	p.doneTasks++
	if !p.anyDone {
		p.anyDone = true
		p.firstDone = now
	}
	if !p.Done() {
		return false, dst
	}
	p.DoneAt = now
	j.markPhaseDone(p)
	j.donePhases++
	if j.Done() {
		j.DoneAt = now
		return true, dst
	}
	// Plan unlocks for dependent phases whose dependencies are now all
	// complete. Only phases still Locked are examined: a phase whose
	// unlock is already planned (UnlockPending — its transfer-gated
	// wakeup is in flight) must not be re-planned when a sibling phase
	// completes. Re-examination could only ever reproduce the identical
	// start time: a phase is planned on the call that completed its last
	// dependency, after which every input to startAt — each dependency's
	// DoneAt and firstDone — is immutable (a phase completes once). The
	// pre-lifecycle code re-planned here and delivered OnPhaseRunnable
	// twice; skipping non-Locked phases is what makes wakeups
	// exactly-once.
	for _, q := range j.Phases {
		if q.State != PhaseLocked || len(q.Deps) == 0 {
			continue
		}
		ready := true
		var depsDone, transferStart simulator.Time
		first := true
		for _, di := range q.Deps {
			d := j.Phases[di]
			if !d.Done() {
				ready = false
				break
			}
			if d.DoneAt > depsDone {
				depsDone = d.DoneAt
			}
			if first || d.firstDone < transferStart {
				transferStart = d.firstDone
				first = false
			}
		}
		if !ready {
			continue
		}
		// Pipelined transfer: TransferWork is total network work
		// (slot-seconds); the phase's tasks pull their partitions in
		// parallel, and most of the pull overlaps both the upstream
		// phase (pipelining, Section 4.2) and the downstream tasks' own
		// runtimes (shuffle reads are part of reduce-task durations), so
		// only a fraction of the per-task share gates the phase start.
		// The transfer began when the first upstream task produced
		// output; the phase starts at whichever is later — all inputs
		// computed, or residual inputs moved.
		startAt := depsDone
		wall := q.TransferWork / float64(len(q.Tasks)) / transferOverlapFactor
		if end := transferStart + wall; end > startAt {
			startAt = end
		}
		q.State = PhaseUnlockPending
		q.RunnableAt = startAt
		dst = append(dst, PhaseUnlock{Phase: q, At: startAt})
	}
	return false, dst
}

// CompletionTime returns the job's response time (completion minus
// arrival). It panics if the job has not finished — reading metrics from
// an unfinished job is always a harness bug.
func (j *Job) CompletionTime() simulator.Time {
	if !j.Done() {
		panic(fmt.Sprintf("cluster: CompletionTime on unfinished job %d", j.ID))
	}
	return j.DoneAt - j.Arrival
}
