package speculation

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// Victim index: an O(log n) replacement for the O(R) BestVictim scan,
// exact-equivalent by construction under four conditions. EnableIndex
// enforces the two a config shows (MaxCopies == 2, no estimate noise);
// the two only a run shows downgrade the monitor to the scan when they
// break: a copy at non-unit speed (heteroSeen, below) and copies killed
// outside task completion (the adapter calls DisableIndex — the
// simulator's churn driver does, before its first leave).
//
// Why those conditions make an index possible:
//
//   - With MaxCopies == 2, a task is an eligible victim iff it is running
//     with exactly one live copy — and since copies are only killed at
//     task completion, that is simply State == TaskRunning &&
//     len(Copies) == 1. Eligibility is recomputable in O(1) from the task
//     itself, so stale heap entries can be discarded lazily at the top
//     instead of tracked with generation counters.
//   - "Only killed at task completion" is what machine churn breaks: a
//     leave removes a running copy from Copies mid-task. A task whose
//     speculative copy died is a candidate again after its entry was
//     discarded as ineligible, and a task whose original died keeps an
//     entry keyed by the dead copy's finish while len(Copies) == 1 now
//     counts its speculative copy or its requeued replacement. Measured
//     with the index left on under churn, Hopper-D at 12 leaves/min went
//     from 108.5 s to 142.9 s mean job time. Hence no index under churn.
//   - A copy's Start and Duration are immutable once placed, so both its
//     observability time (ripeAt = Start + DetectDelayFrac·phase mean) and
//     its finish time (Start + Duration) are fixed at placement: heap keys
//     never change.
//   - With no estimate noise, the scan's remaining-time estimate is the
//     deterministic max(0, finish − now), monotone in finish — so the
//     max-finish task is the max-remaining task — and no RNG draw is
//     consumed that an index would have to replay.
//   - t_new is uniform within a (job, phase) bucket (job median once five
//     completions exist, else the phase mean), so if the bucket's top
//     fails the "remaining > t_new" cut, the whole bucket does.
//
// Structure: per job, per phase, two heaps of immutable entries — a
// ripening min-heap ordered by ripeAt holding tasks too young to observe,
// and a ready max-heap ordered by (finish desc, hand-out pos asc) holding
// observable candidates. A query ripens due entries, discards ineligible
// tops, and takes the max-remaining top across buckets with ties broken
// by hand-out order — bit-for-bit the scan's answer (the scan keeps the
// first of equals in running-set order, which is hand-out order; equal
// positive remainings imply equal finishes, and zero remainings never
// pass the t_new cut).
//
// An index instance lives inside one scheduler's Monitor and indexes only
// tasks that scheduler handed out. The caller must report every original
// placement (OriginalCopyPlaced): decentral.New, which makes that
// promise, is the one place the index is switched on.

// victimEntry is one original copy's immutable index record.
type victimEntry struct {
	t      *cluster.Task
	finish float64 // Copies[0].Start + Duration
	ripeAt float64 // when the copy becomes observable
	pos    int     // hand-out rank within the job (Task.VictimPos)
}

// eligible reports whether the entry's task is still a victim candidate.
// See the package comment: under MaxCopies == 2 this is exact.
func (e victimEntry) eligible() bool {
	return e.t.State == cluster.TaskRunning && len(e.t.Copies) == 1
}

// victimBucket indexes one phase's original copies.
type victimBucket struct {
	phase    *cluster.Phase
	ripening []victimEntry // min-heap by ripeAt
	ready    []victimEntry // max-heap by (finish, then min pos)
}

func ripeLess(a, b victimEntry) bool { return a.ripeAt < b.ripeAt }

func readyLess(a, b victimEntry) bool {
	if a.finish != b.finish {
		return a.finish > b.finish
	}
	return a.pos < b.pos
}

func heapPush(h *[]victimEntry, e victimEntry, less func(a, b victimEntry) bool) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func heapPop(h *[]victimEntry, less func(a, b victimEntry) bool) victimEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = victimEntry{} // release the task pointer for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && less(q[l], q[small]) {
			small = l
		}
		if r < n && less(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// jobVictims is one job's victim index. Buckets live in a slice in
// first-placement order: jobs have a handful of phases, so a linear
// match on the phase pointer beats a map lookup, and BestVictimFor's
// per-offer sweep iterates contiguous memory in deterministic order
// instead of restarting a map iterator.
type jobVictims struct {
	buckets []*victimBucket
	nextPos int
}

// bucket returns the phase's bucket, or nil.
func (ji *jobVictims) bucket(p *cluster.Phase) *victimBucket {
	for _, b := range ji.buckets {
		if b.phase == p {
			return b
		}
	}
	return nil
}

// EnableIndex switches the monitor's victim search from the linear scan to
// the heap index. It requires the exact-equivalence conditions (see the
// file comment) and panics otherwise — enabling the index must never be
// able to change simulation results.
func (m *Monitor) EnableIndex() {
	if m.cfg.MaxCopies != 2 {
		panic(fmt.Sprintf("speculation: victim index requires MaxCopies == 2, have %d", m.cfg.MaxCopies))
	}
	if m.cfg.EstimateNoise > 0 {
		panic("speculation: victim index requires noise-free estimates")
	}
	m.idx = make(map[cluster.JobID]*jobVictims)
}

// DisableIndex returns the monitor to the linear scan for good. Always
// safe, at any point in a run: the scan keeps no state of its own.
func (m *Monitor) DisableIndex() { m.idx = nil }

// IndexEnabled reports whether BestVictimFor answers from the index:
// EnableIndex was called and nothing has downgraded the monitor since.
func (m *Monitor) IndexEnabled() bool { return m.idx != nil && !m.heteroSeen }

// TaskHandedOut records a fresh task entering its scheduler's running set,
// assigning its hand-out rank. Call immediately after RunningSet.Add; a
// no-op when the index is disabled.
func (m *Monitor) TaskHandedOut(t *cluster.Task) {
	if m.idx == nil {
		return
	}
	ji := m.idx[t.Job.ID]
	if ji == nil {
		ji = &jobVictims{}
		m.idx[t.Job.ID] = ji
	}
	t.VictimPos = ji.nextPos
	ji.nextPos++
}

// OriginalCopyPlaced indexes a task's original copy once it has a machine
// (Start and Duration are now fixed). Call after Executor.PlaceOn for
// non-speculative placements; a no-op when the index is disabled.
func (m *Monitor) OriginalCopyPlaced(t *cluster.Task) {
	if m.idx == nil {
		return
	}
	ji := m.idx[t.Job.ID]
	if ji == nil {
		return // job already completed (e.g. placement raced job teardown)
	}
	b := ji.bucket(t.Phase)
	if b == nil {
		b = &victimBucket{phase: t.Phase}
		ji.buckets = append(ji.buckets, b)
	}
	c := t.Copies[0]
	if c.Speed != 1 {
		// Heap keys assume remaining work is monotone in wall-clock finish,
		// which holds only when every copy runs at the same speed. The first
		// off-speed placement permanently downgrades this monitor to the
		// scan (still exact; the index is a pure optimization).
		m.heteroSeen = true
	}
	heapPush(&b.ripening, victimEntry{
		t:      t,
		finish: c.Start + c.Duration,
		ripeAt: c.Start + m.cfg.DetectDelayFrac*t.Phase.MeanTaskDuration,
		pos:    t.VictimPos,
	}, ripeLess)
}

// BestVictimFor is BestVictim answered from the index when it is enabled
// (falling back to the scan otherwise): the observable single-copy task
// with the largest remaining time whose fresh copy would beat it. jobID
// scopes the index; running is only consulted on the scan path.
func (m *Monitor) BestVictimFor(now float64, jobID cluster.JobID, running []*cluster.Task, maxCopies int) *cluster.Task {
	if m.idx == nil || maxCopies != 2 || m.heteroSeen {
		return m.BestVictim(now, running, maxCopies)
	}
	ji := m.idx[jobID]
	if ji == nil {
		return nil
	}
	// The job-history half of the t_new estimate is per-job, not
	// per-bucket: resolve it once, outside the bucket sweep (this is
	// estNewFor with the map lookup hoisted).
	js := m.jobs[jobID]
	useJob := js != nil && js.done.N() >= 5
	if useJob {
		js.refreshCache(m.slowPct)
	}
	var victim *cluster.Task
	var victimRem float64
	var victimPos int
	for _, b := range ji.buckets {
		for len(b.ripening) > 0 && b.ripening[0].ripeAt <= now {
			e := heapPop(&b.ripening, ripeLess)
			if e.eligible() {
				heapPush(&b.ready, e, readyLess)
			}
		}
		for len(b.ready) > 0 && !b.ready[0].eligible() {
			heapPop(&b.ready, readyLess)
		}
		if len(b.ready) == 0 {
			continue
		}
		e := b.ready[0]
		rem := e.finish - now
		if rem < 0 {
			rem = 0
		}
		estNew := b.phase.MeanTaskDuration
		if useJob {
			estNew = js.estNew
		}
		if rem <= estNew {
			continue // the bucket's max remaining fails the cut; all do
		}
		if victim == nil || rem > victimRem || (rem == victimRem && e.pos < victimPos) {
			victim, victimRem, victimPos = e.t, rem, e.pos
		}
	}
	return victim
}
