package cluster

import "github.com/hopper-sim/hopper/internal/simulator"

// UnlockPlanner is the single owner of phase wakeup delivery. It turns
// job admission's root unlocks and Job.CompleteTask's planned unlocks
// into exactly-once MarkRunnable + Deliver calls; the only adapter-
// specific part — how a deferred wakeup waits out its transfer gate —
// is injected through Schedule. The simulator's Executor and the live
// scheduler node each drive one planner instead of hand-rolling the
// plan -> schedule -> fire sequence; three hand-rolled copies of that
// sequence is how the pre-lifecycle double-fire bug survived.
type UnlockPlanner struct {
	// Schedule defers fire() to time at in the adapter's time domain: an
	// engine post in the simulator, a timer in a live node. It is invoked
	// once per planned unlock, including unlocks already due (at <= now)
	// — the simulator posts those too, preserving its event ordering,
	// while a live node fires them inline.
	Schedule func(at simulator.Time, fire func())
	// Deliver receives each phase exactly once, immediately after its
	// MarkRunnable transition.
	Deliver func(p *Phase)

	// scratch backs the per-completion unlock list under the same
	// single-event reuse rule as the Executor's other scratch buffers:
	// the fire closures capture phases, never the slice.
	scratch []PhaseUnlock
}

// AdmitJob plans the job's root phases and fires their wakeups
// immediately (roots have no transfer gate). Call exactly once per job,
// at arrival.
func (u *UnlockPlanner) AdmitJob(j *Job, now simulator.Time) {
	for _, p := range j.Phases {
		if len(p.Deps) == 0 {
			p.RunnableAt = now
			u.fire(p)
		}
	}
}

// CompleteTask settles one finished task: phase/job bookkeeping via
// Job.CompleteTask, then one Schedule per newly planned unlock. Reports
// whether the task's job just finished.
func (u *UnlockPlanner) CompleteTask(t *Task, now simulator.Time) (jobDone bool) {
	jobDone, unlocks := t.Job.CompleteTask(t, now, u.scratch[:0])
	u.scratch = unlocks
	for _, unl := range unlocks {
		p := unl.Phase
		u.Schedule(unl.At, func() { u.fire(p) })
	}
	return jobDone
}

// fire performs the UnlockPending -> Runnable transition and delivers
// the wakeup. MarkRunnable panics on a duplicate, so any path that
// bypasses the planner's exactly-once bookkeeping fails loudly.
func (u *UnlockPlanner) fire(p *Phase) {
	p.MarkRunnable()
	u.Deliver(p)
}
