package cluster

import (
	"fmt"
	"math/rand"

	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/stats"
)

// ExecModel defines how long a task copy takes on a slot. Per-copy service
// times are i.i.d. Pareto draws around the phase's mean — the heavy tail is
// the straggler phenomenon (paper Section 4.1), and a speculative copy is a
// fresh draw, which is exactly why the original/speculative race helps.
type ExecModel struct {
	// Beta is the Pareto tail index of per-copy durations (1 < Beta <= 2
	// in the traces the paper studies, Section 4.1; smaller is
	// heavier-tailed). DefaultExecModel sets the module's one default;
	// the β prior (speculation.Config), the live scheduler and
	// hopper-scheduler's -beta flag read it from there.
	Beta float64

	// RemotePenalty multiplies the duration of input-phase copies that
	// read their data over the network (>= 1). Ours: a modest penalty,
	// so the locality relaxation of Section 4.4 has something to win.
	RemotePenalty float64

	// MachineStraggleProb optionally adds spatially correlated
	// interference: with this probability a placement lands in a slow
	// period and is further multiplied by a Pareto(MachineStraggleShape)
	// factor capped at MachineStraggleCap. Zero disables the mechanism.
	// The 6% default is ours: the paper reports slow machines (Sections 1
	// and 2.2) but not how often a placement meets one.
	MachineStraggleProb float64

	// MachineStraggleShape is the slow factor's Pareto shape. Ours: 1.1,
	// near the heaviest tail that still has a finite mean.
	MachineStraggleShape float64

	// MachineStraggleCap bounds the slow factor: 8, the paper's "tasks up
	// to 8x slower than expected" (Sections 1 and 2.2).
	MachineStraggleCap float64
}

// DefaultExecModel mirrors the trace regime in the paper: beta 1.5 task
// durations, modest remote-read penalty, and machine-level interference
// matching the paper's observations (tasks up to 8x slower than expected
// due to IO contention, maintenance, and hardware behaviors — Sections 1
// and 2.2): 6%% of placements land in a slow period and are further
// slowed by a heavy-tailed factor capped at 8x. Re-drawing the machine is
// exactly what a speculative copy buys.
func DefaultExecModel() ExecModel {
	return ExecModel{
		Beta:                 1.5,
		RemotePenalty:        1.25,
		MachineStraggleProb:  0.06,
		MachineStraggleShape: 1.1,
		MachineStraggleCap:   8,
	}
}

// Duration draws one copy's service time.
func (em ExecModel) Duration(rng *rand.Rand, meanTask float64, local bool) float64 {
	d := stats.SampleMean(rng, meanTask, em.Beta)
	if !local && em.RemotePenalty > 1 {
		d *= em.RemotePenalty
	}
	if em.MachineStraggleProb > 0 && rng.Float64() < em.MachineStraggleProb {
		f := stats.NewPareto(1, em.MachineStraggleShape).Sample(rng)
		if em.MachineStraggleCap > 0 && f > em.MachineStraggleCap {
			f = em.MachineStraggleCap
		}
		d *= f
	}
	return d
}

// CopyDuration draws the service time of t's next copy on a machine of
// the given speed: a Duration draw from src's stream for that copy
// (attempt len(t.Copies)), scaled to wall-clock off speed 1. The
// simulator's Executor and the live scheduler both draw through here,
// each from its own CopySource, so an emulated cluster inherits the
// simulator's straggler realizations.
func (em ExecModel) CopyDuration(src *CopySource, t *Task, local bool, speed float64) float64 {
	d := em.Duration(src.stream(t, len(t.Copies)), t.Phase.MeanTaskDuration, local)
	if speed != 1 {
		// The draw is baseline-speed work; wall-clock scales inversely
		// with the machine's service rate. Guarded so homogeneous runs
		// never touch the division (exact float identity).
		d /= speed
	}
	return d
}

// CopySource is one owner's deterministic service-time source: a stream
// per copy, keyed by (job, phase, task, attempt) under a seed rather than
// by placement order. Two replays of the same trace under different
// schedulers then share straggler realizations, so paired per-job
// comparisons (Figures 8a and 10) measure scheduling differences, not
// resampling noise. It owns one SplitMix64 and the *rand.Rand over it and
// reseeds the source for each copy, so a draw allocates nothing. Not safe
// for concurrent use; each owner (an Executor, a live scheduler's loop)
// holds its own.
type CopySource struct {
	seed int64
	src  stats.SplitMix64
	rng  *rand.Rand
}

// NewCopySource returns the copy streams keyed under seed.
func NewCopySource(seed int64) *CopySource {
	cs := &CopySource{seed: seed}
	cs.rng = rand.New(&cs.src)
	return cs
}

// stream positions the source at the start of copy attempt of t and
// returns it; the stream is valid until the next call.
func (cs *CopySource) stream(t *Task, attempt int) *rand.Rand {
	h := uint64(cs.seed)
	for _, v := range [4]uint64{uint64(t.Job.ID), uint64(t.Phase.Index), uint64(t.Index), uint64(attempt)} {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	cs.src = stats.SplitMix64(h)
	return cs.rng
}

// Executor runs copies on machines inside a discrete-event simulation:
// it owns slot accounting, the engine events that end copies, phase-
// dependency unlocking with pipelined transfers, and job completion. The
// copy race itself is Task.Win (first finisher wins) and a lost copy is
// Task.DropCopy; the Executor's part is the simulated consequence —
// cancelling a loser's finish event and reclaiming its slot. Schedulers
// drive it through Place/PlaceOn and react through the callbacks.
type Executor struct {
	Eng      *simulator.Engine
	Machines *Machines
	Model    ExecModel

	// OnTaskDone fires when a task's winning copy completes, after slot
	// accounting for the whole race has been settled.
	OnTaskDone func(t *Task, winner *Copy)
	// OnPhaseRunnable fires exactly once per phase, when its dependencies
	// and pipelined transfer complete, making its tasks schedulable. The
	// exactly-once guarantee comes from the phase lifecycle
	// (PhaseState/UnlockPlanner); consumers may credit demand counters
	// without deduplicating.
	OnPhaseRunnable func(p *Phase)
	// OnJobDone fires when a job's last phase completes.
	OnJobDone func(j *Job)
	// OnSlotFree fires once per freed slot (wins and kills alike), after
	// OnTaskDone for the same event. Decentralized workers use this to
	// start their next pull; centralized engines typically ignore it and
	// re-dispatch from OnTaskDone.
	OnSlotFree func(m MachineID)

	// DurationOverride, when set, supplies copy service times instead of
	// the ExecModel draw — used by the Section 3 example and by tests
	// that need exact schedules.
	DurationOverride func(t *Task, speculative bool) float64

	// durations draws task-intrinsic service times; see CopySource.
	durations *CopySource

	// Stats
	CopiesStarted     int
	SpeculativeCopies int
	CopiesKilled      int
	LocalCopies       int
	TasksDone         int
	// SlotSecondsUsed accumulates busy slot-time, including time spent by
	// copies that were later killed (wasted work shows up here).
	SlotSecondsUsed float64
	// SpeculativeSlotSeconds is the part of SlotSecondsUsed consumed by
	// speculative copies.
	SpeculativeSlotSeconds float64

	// SaturatedTime accumulates wall-clock spent with zero free slots —
	// the regime in which speculation and new jobs must queue and
	// speculation-aware allocation matters most.
	SaturatedTime float64
	satSince      simulator.Time
	saturated     bool

	rng *rand.Rand

	// amongScratch backs locality-aware machine choice (FreeAmong) and
	// freedScratch the per-completion freed-slot list, so neither
	// allocates per placement/completion. freedScratch is safe to reuse
	// because OnSlotFree consumers only post events — copyFinished never
	// re-enters synchronously.
	amongScratch []MachineID
	freedScratch []MachineID

	// unlock owns phase wakeup delivery: unlocks become engine posts and
	// each phase reaches OnPhaseRunnable exactly once.
	unlock UnlockPlanner

	// killLoser is Task.Win's loser consequence and finishFn the copy
	// finish event's callback (its arg is the *Copy), both bound once
	// here so a placement and a race allocate nothing of their own.
	killLoser func(*Copy)
	finishFn  func(any)
}

// noteSlotChange updates the saturation clock after slot counts change.
func (x *Executor) noteSlotChange() {
	sat := !x.Machines.AnyFree()
	if sat && !x.saturated {
		x.saturated = true
		x.satSince = x.Eng.Now()
	} else if !sat && x.saturated {
		x.saturated = false
		x.SaturatedTime += x.Eng.Now() - x.satSince
	}
}

// NewExecutor wires an executor to an engine and machine set.
func NewExecutor(eng *simulator.Engine, ms *Machines, model ExecModel) *Executor {
	x := &Executor{Eng: eng, Machines: ms, Model: model, rng: eng.Rand(), durations: NewCopySource(eng.Rand().Int63())}
	x.unlock = UnlockPlanner{
		// Every unlock becomes an engine post, including ones already due:
		// same-timestamp FIFO ordering of wakeups versus completions is
		// part of the dispatch identity contract.
		Schedule: func(at simulator.Time, fire func()) { x.Eng.Post(at, fire) },
		Deliver: func(p *Phase) {
			if x.OnPhaseRunnable != nil {
				x.OnPhaseRunnable(p)
			}
		},
	}
	x.killLoser = func(sib *Copy) {
		x.reclaim(sib)
		x.freedScratch = append(x.freedScratch, sib.Machine)
	}
	x.finishFn = func(c any) { x.copyFinished(c.(*Copy)) }
	return x
}

// AdmitJob marks the job's root phases runnable at the current time and
// fires OnPhaseRunnable for each. Call exactly once, at job arrival.
func (x *Executor) AdmitJob(j *Job) {
	x.unlock.AdmitJob(j, x.Eng.Now())
}

// Place chooses a machine for the task (locality-aware) and starts a copy
// there. Returns nil if the cluster has no free slot.
func (x *Executor) Place(t *Task, speculative bool) *Copy {
	if cap(x.amongScratch) < len(t.Replicas) {
		x.amongScratch = make([]MachineID, 0, 2*len(t.Replicas))
	}
	m, local := x.Machines.PickForTask(x.rng, t, x.amongScratch)
	if m < 0 {
		return nil
	}
	return x.placeOn(t, m, speculative, local)
}

// PlaceOn starts a copy of the task on a specific machine, as happens in
// decentralized mode where the worker owns the slot. Panics if the
// machine is full (the caller holds the slot by construction).
func (x *Executor) PlaceOn(t *Task, m MachineID, speculative bool) *Copy {
	return x.placeOn(t, m, speculative, t.LocalOn(m))
}

func (x *Executor) placeOn(t *Task, m MachineID, speculative, local bool) *Copy {
	if t.State == TaskDone {
		panic(fmt.Sprintf("cluster: placing copy of finished task %s", t.ID()))
	}
	if t.Phase.State != PhaseRunnable {
		panic(fmt.Sprintf("cluster: placing task %s in non-runnable phase", t.ID()))
	}
	x.Machines.AcquireFor(m, t.Demand)
	x.noteSlotChange()
	now := x.Eng.Now()
	dur := 0.0
	if x.DurationOverride != nil {
		// Scripted schedules are explicit wall-clock times; no speed scaling.
		dur = x.DurationOverride(t, speculative)
	} else {
		dur = x.Model.CopyDuration(x.durations, t, local, x.Machines.All[m].Speed)
	}
	c := t.StartCopy(now, m, speculative, dur)
	c.Speed = x.Machines.All[m].Speed
	x.CopiesStarted++
	if speculative {
		x.SpeculativeCopies++
	}
	if local {
		x.LocalCopies++
	}
	x.Eng.AtArg(&c.finish, now+c.Duration, x.finishFn, c)
	return c
}

func (x *Executor) copyFinished(c *Copy) {
	t := c.Task
	if c.Killed || t.State == TaskDone {
		// Stale event; the copy's slot was already reclaimed at kill time.
		return
	}
	now := x.Eng.Now()
	x.TasksDone++
	x.SlotSecondsUsed += c.Duration
	if c.Speculative {
		x.SpeculativeSlotSeconds += c.Duration
	}
	x.Machines.Release(c.Machine)
	x.noteSlotChange()
	x.freedScratch = append(x.freedScratch[:0], c.Machine)

	// Kill racing siblings and reclaim their slots now (killLoser).
	t.Win(c, now, x.killLoser)

	jobDone := x.taskDone(t, now)

	// Ordering contract: OnTaskDone fires before OnJobDone so schedulers
	// settle per-task accounting (occupancy, estimators) while the job is
	// still registered; OnSlotFree fires last.
	if x.OnTaskDone != nil {
		x.OnTaskDone(t, c)
	}
	if jobDone && x.OnJobDone != nil {
		x.OnJobDone(t.Job)
	}
	if x.OnSlotFree != nil {
		for _, m := range x.freedScratch {
			x.OnSlotFree(m)
		}
	}
}

// KillCopy forcibly terminates a running copy with no winner — the
// machine holding it left the cluster (churn) or its worker crashed.
// The copy is dropped from its task (Task.DropCopy) so completion
// accounting (which settles per surviving copy) never counts it, its
// finish event is cancelled, and the slot is released WITHOUT firing
// OnSlotFree: the departed machine's slots are not schedulable. Reports
// false if the copy had already finished or been killed.
func (x *Executor) KillCopy(c *Copy) bool {
	t := c.Task
	if c.Killed || c.Won || t.State == TaskDone {
		return false
	}
	t.DropCopy(c)
	x.reclaim(c)
	return true
}

// reclaim is the simulated end of a copy that did not win: its finish
// event is cancelled, the time it ran is charged as used (wasted) slot
// time, and its slot is released.
func (x *Executor) reclaim(c *Copy) {
	c.finish.Cancel()
	x.CopiesKilled++
	ran := x.Eng.Now() - c.Start
	x.SlotSecondsUsed += ran
	if c.Speculative {
		x.SpeculativeSlotSeconds += ran
	}
	x.Machines.Release(c.Machine)
	x.noteSlotChange()
}

// taskDone performs phase/job completion bookkeeping through the unlock
// planner and reports whether the task's job just finished (the caller
// fires OnJobDone after OnTaskDone).
func (x *Executor) taskDone(t *Task, now simulator.Time) bool {
	return x.unlock.CompleteTask(t, now)
}

// SpeculationWasteFraction returns the fraction of consumed slot-seconds
// spent on speculative copies — the paper reports 21% resource usage by
// speculative tasks in Facebook's cluster.
func (x *Executor) SpeculationWasteFraction() float64 {
	if x.SlotSecondsUsed == 0 {
		return 0
	}
	return x.SpeculativeSlotSeconds / x.SlotSecondsUsed
}
