package speculation

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/core"
	"github.com/hopper-sim/hopper/internal/estimate"
	"github.com/hopper-sim/hopper/internal/stats"
)

// Book is one scheduler's speculation bookkeeping, the same on both
// planes: the monitor config its jobs' straggler monitors share, the two
// online estimators behind every virtual size (β, the task-duration tail
// index, and α, the DAG transfer weighting), and the handlers that keep
// each job's JobBook in step with them. The centralized chassis
// (scheduler.Base) and the decentralized core (protocol.Sched) each hold
// one; what they keep beside it is their own — the chassis dispatches onto
// an executor, the core negotiates with workers. Not safe for concurrent
// use, like its owners.
type Book struct {
	Beta  *stats.TailEstimator
	Alpha *estimate.AlphaEstimator

	cfg *Config

	// cand is the index walks' reusable result buffer and walkStack their
	// stack of pending subtrees: one of each serves every job of the book.
	cand      []*cluster.Task
	walkStack []int
}

// NewBook builds a scheduler's book. The β estimator reports
// cfg.BetaPrior until it has observed betaWarmup completions.
func NewBook(cfg Config, betaWarmup int) Book {
	cfg = cfg.WithDefaults()
	return Book{
		Beta:  stats.NewTailEstimator(1e-9, cfg.BetaPrior, betaWarmup),
		Alpha: estimate.NewAlphaEstimator(),
		cfg:   &cfg,
	}
}

// NewJob returns the book's record of a newly admitted job, for its owner
// to embed.
func (b *Book) NewJob(j *cluster.Job) JobBook { return JobBook{Job: j, Mon: Monitor{cfg: b.cfg}} }

// JobBook is a Book's record of one job. Owners embed it by value in their
// own job record, so a job costs no allocation of its own; Mon, the job's
// straggler monitor (completion history and victim index), goes with it.
//
// Invariants (DESIGN.md section 6):
//   - the want queue holds each policy-flagged task at most once
//     (membership is the Task.SpecWanted scratch flag: one scheduler owns
//     each task, and only JobBook and its Book set or clear the flag, so
//     it holds exactly for the queue's members — the victim index relies
//     on it), in request order, with a retried want at the front;
//   - Running counts the job's tasks handed out as originals and neither
//     completed nor requeued since — the victim index's running set
//     (Task.VictimPos), as a count. Centrally it is exact, and the chassis
//     sizes its hold from it; the core never reads it;
//   - Occupied counts the slots committed to the job: its live copies,
//     plus, in the core, accepts in flight (Pseudocode 2's
//     current_occupied).
type JobBook struct {
	Job      *cluster.Job
	Running  int
	Occupied int
	Mon      Monitor

	wants    cluster.TaskDeque
	credited cluster.PhaseSet
}

// Wants returns the number of queued speculation wants, stale ones
// included until a take meets them.
func (jb *JobBook) Wants() int { return jb.wants.Len() }

// AddWant queues a speculation request for t unless one is queued already,
// and reports whether it did.
func (jb *JobBook) AddWant(t *cluster.Task) bool {
	if t.SpecWanted {
		return false
	}
	t.SpecWanted = true
	jb.wants.PushBack(t)
	return true
}

// RetryWant puts t back at the front of the want queue: the retry of a
// want TakeWant gave out and no slot could take.
func (jb *JobBook) RetryWant(t *cluster.Task) {
	jb.wants.PushFront(t)
	t.SpecWanted = true
}

// stale reports whether a queued want can no longer take a copy: its task
// finished, or has reached the copy cap since it was flagged.
func (b *Book) stale(t *cluster.Task) bool {
	return t.State != cluster.TaskRunning || t.RunningCopies() >= b.cfg.MaxCopies
}

// TakeWant dequeues the oldest want that fits accepts (nil accepts any),
// dropping the stale wants it meets on the way; nil when none qualifies.
// A live want fits rejects stays queued. The want it hands out goes back
// into the job's victim index (a walk drops a queued want's entry): a task
// still under the cap after its copy, a copy that has not landed yet, or
// a want the caller retries (RetryWant) is then a victim the index holds
// again.
func (b *Book) TakeWant(jb *JobBook, fits func(*cluster.Task) bool) *cluster.Task {
	for i := 0; i < jb.wants.Len(); {
		t := jb.wants.At(i)
		if b.stale(t) {
			t.SpecWanted = false
			jb.wants.RemoveAt(i)
			continue
		}
		if fits != nil && !fits(t) {
			i++
			continue
		}
		t.SpecWanted = false
		jb.wants.RemoveAt(i)
		jb.Mon.victims.track(t)
		return t
	}
	return nil
}

// OldestWant returns the oldest want that is not stale, leaving the queue
// as it is; nil when there is none.
func (b *Book) OldestWant(jb *JobBook) *cluster.Task {
	for i := 0; i < jb.wants.Len(); i++ {
		if t := jb.wants.At(i); !b.stale(t) {
			return t
		}
	}
	return nil
}

// PhaseRunnable records the wakeup of the job's phase p and reports
// whether it is the first. The planes answer a duplicate differently, on
// purpose: the chassis panics, because the executor's unlock planner
// delivers exactly once and a second credit is a bug; the core counts it
// (protocol.Stats.DoubleWakeups) and absorbs it, because a live adapter
// can redeliver a phase outside the planner.
func (b *Book) PhaseRunnable(jb *JobBook, p *cluster.Phase) (first bool) {
	return !jb.credited.Add(p)
}

// HandedOut records a copy of t committed to the job: one slot and, for an
// original (spec false), the task entering the running set, where the
// victim index ranks it (Monitor.TaskHandedOut — which also keys the task
// if its copy has landed already).
func (b *Book) HandedOut(jb *JobBook, t *cluster.Task, spec bool) {
	jb.Occupied++
	if !spec {
		jb.Running++
		jb.Mon.TaskHandedOut(t)
	}
}

// TaskDone settles t's completion: β learns the winner's duration. For a
// job in the book (jb non-nil) the job's monitor records it and retires
// the task, every copy's slot comes back — the winner and its same-instant
// kills end together — the task leaves the running set, and a want for it
// is withdrawn.
func (b *Book) TaskDone(jb *JobBook, t *cluster.Task, winner *cluster.Copy) {
	b.Beta.Observe(winner.Duration)
	if jb == nil {
		return
	}
	jb.Mon.TaskCompleted(t, winner)
	jb.Occupied -= len(t.Copies)
	jb.Running--
	if t.SpecWanted {
		t.SpecWanted = false
		jb.wants.Remove(t)
	}
}

// JobDone lets α learn the job's transfers and returns the occupancy the
// job still holds (0 for jb nil). That should be none: each slot comes
// back at its task's completion or at the loss of its copy, so a leftover
// is an accounting bug. The job's monitor goes with its owner's record.
func (b *Book) JobDone(jb *JobBook, j *cluster.Job) (leftover int) {
	b.Alpha.JobCompleted(j)
	if jb == nil {
		return 0
	}
	return jb.Occupied
}

// CopyLost settles a copy of t that died without finishing the task, after
// the owner took it out of t.Copies, or a hand-out of t lost before its
// copy landed: the slot comes back and the victim index re-keys or retires
// the task (Monitor.CopyDropped). It reports whether t is left unfinished
// with no live copy: then it has left the running set and the owner must
// requeue it.
func (b *Book) CopyLost(jb *JobBook, t *cluster.Task) (requeue bool) {
	jb.Occupied--
	jb.Mon.CopyDropped(t)
	if t.State == cluster.TaskDone || t.RunningCopies() > 0 {
		return false
	}
	jb.Running--
	return true
}

// Scan queues the job's new speculation wants and returns them, reusing
// dst: the policy's candidates below the copy cap and, with victims set,
// every other ripe victim of capacity-driven speculation — both answered
// by the job's victim index (Monitor.walk), in running-set order.
func (b *Book) Scan(now float64, jb *JobBook, victims bool, dst []*cluster.Task) []*cluster.Task {
	out := dst[:0]
	for _, t := range b.walk(now, jb, true) {
		if t.RunningCopies() < b.cfg.MaxCopies && jb.AddWant(t) {
			out = append(out, t)
		}
	}
	if victims {
		for _, t := range b.walk(now, jb, false) {
			if jb.AddWant(t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// walk runs one of the job's index walks (Monitor.walk: the policy's
// candidates, or with policy false every victim) on the book's shared
// stack, into its result buffer, which the next walk reuses.
func (b *Book) walk(now float64, jb *JobBook, policy bool) []*cluster.Task {
	b.cand = jb.Mon.walk(now, policy, &b.walkStack, b.cand)
	return b.cand
}

// BestVictim returns the task to race in a slot the job has allocated
// and no want fills — the worst ripe straggler a fresh copy would beat,
// below the copy cap (Monitor.BestVictim's rule) — answered by the job's
// victim index and its want queue, whose tasks a walk may have taken out
// of the index; nil when there is none. A queued straggler counts even
// though a want would race it anyway: the caller may not be able to place
// it (a machine too small for it), and then no smaller victim is raced
// in its stead.
func (b *Book) BestVictim(now float64, jb *JobBook) *cluster.Task {
	v, vRem := jb.Mon.bestVictim(now, &b.walkStack)
	if jb.wants.Len() == 0 {
		return v
	}
	hist := jb.Mon.history()
	for i := 0; i < jb.wants.Len(); i++ {
		t := jb.wants.At(i)
		if t.VictimPos == 0 {
			continue // requeued: outside the running set
		}
		if rem, ok := jb.Mon.victimRemaining(now, t, b.cfg.MaxCopies, hist); ok &&
			(v == nil || rem > vRem || (rem == vRem && t.VictimPos < v.VictimPos)) {
			v, vRem = t, rem
		}
	}
	return v
}

// Demand returns the allocator's view of the job — its remaining current
// tasks, α and V' (core.JobDemand, MaxUsable left to the caller) — and the
// β it was evaluated at: the two estimator reads behind every virtual size
// and priority, at one Alpha.Evaluate per call.
func (b *Book) Demand(j *cluster.Job) (core.JobDemand, float64) {
	beta := b.Beta.Estimate()
	alpha, dv := b.Alpha.Evaluate(j, beta)
	return core.JobDemand{
		ID:                int64(j.ID),
		Remaining:         j.RemainingCurrentTasks(),
		Alpha:             alpha,
		DownstreamVirtual: dv,
	}, beta
}
