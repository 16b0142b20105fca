package speculation

import (
	"math"
	"slices"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// Victim index: the one structure that answers a scheduler's three
// speculation questions about a job without visiting its running set —
// which task to race (BestVictimFor), which tasks the policy newly wants
// (CandidatesFor) and which victims are ripe (VictimsFor) — exact-
// equivalent to the scans (BestVictim, CandidatesInto, VictimsInto) by
// construction under four conditions. EnableIndex enforces the two a
// config shows (Config.IndexExact: MaxCopies == 2, no estimate noise);
// the two only a run shows downgrade the monitor to the scan when they
// break: a copy at non-unit speed (OriginalCopyPlaced drops the index)
// and copies killed outside task completion (the adapter calls
// DisableIndex — the simulator's churn driver does, before its first
// leave).
//
// Why those conditions make an index possible:
//
//   - With MaxCopies == 2, a task is an eligible victim iff it is running
//     with exactly one live copy — and since copies are only killed at
//     task completion, that is simply State == TaskRunning &&
//     len(Copies) == 1. Eligibility is recomputable in O(1) from the task
//     itself and, once lost, never returns, so stale heap entries are
//     discarded lazily wherever a query meets them instead of tracked
//     with generation counters.
//   - "Only killed at task completion" is what machine churn breaks: a
//     leave removes a running copy from Copies mid-task. A task whose
//     speculative copy died is a candidate again after its entry was
//     discarded as ineligible, and a task whose original died keeps an
//     entry keyed by the dead copy's finish while len(Copies) == 1 now
//     counts its speculative copy or its requeued replacement. Measured
//     with the index left on under churn, Hopper-D at 12 leaves/min went
//     from 108.5 s to 142.9 s mean job time. Hence no index under churn.
//   - A copy's Start and Duration are immutable once placed, so both the
//     order in which copies become observable (by Start: the observation
//     delay is uniform within a phase) and their finish times
//     (Start + Duration) are fixed at placement: heap keys never change.
//   - With no estimate noise, the scan's remaining-time estimate is the
//     deterministic max(0, finish − now), monotone in finish — so the
//     max-finish task is the max-remaining task — and no RNG draw is
//     consumed that an index would have to replay.
//   - t_new is uniform within a (job, phase) bucket (job median once five
//     completions exist, else the phase mean), so if an entry fails the
//     "remaining > t_new" cut, every entry that finishes no later fails
//     it too: the bucket's top decides for the bucket, and a heap node
//     decides for its subtree.
//
// Structure: per job, per phase, two heaps of immutable entries — a
// ripening min-heap ordered by Start holding tasks too young to observe,
// and a ready max-heap ordered by (Finish desc, hand-out pos asc) holding
// observable candidates. Heap order only says whom to test next: whether
// the entry at the top of ripening is observable, and whether a ready
// entry beats t_new, is decided by the scan's own expressions on that
// entry — Copy.WorkElapsed against the delay, Copy.WorkRemaining against
// t_new, which at unit speed are now − Start and max(0, Finish − now) to
// the bit — so the two paths cannot part by a rounding at a boundary
// (a precomputed Start + delay <= now would: it differs from
// now − Start >= delay by an ulp there). Both expressions are monotone in
// the heap's key, which is what makes stopping at the first failure
// exact.
//
// The three queries:
//
//   - BestVictimFor ripens due entries, discards ineligible tops, and
//     takes the max-remaining top across buckets with ties broken by
//     hand-out order — bit-for-bit the scan's answer (the scan keeps the
//     first of equals in running-set order, which is hand-out order;
//     equal positive remainings imply equal finishes, and zero remainings
//     never pass the t_new cut).
//   - VictimsFor walks each ready heap from the root, pruning a subtree
//     at the first entry that fails the t_new cut: it visits the victims
//     (plus at most two failing children each), not the running set.
//   - CandidatesFor is the same walk with the policy applied to each
//     victim, through the scan's own Estimates. Every shipped policy's
//     rule implies Remaining > New (TestPoliciesImplyVictim pins it for
//     whatever ByName returns), so the policy's candidates are a subset
//     of the victims and the pruned walk loses none.
//
// Both walks skip entries already flagged Task.SpecWanted — the caller's
// want queue drops those anyway — and return the rest sorted by hand-out
// pos, i.e. in the running-set order the scans return. An ineligible
// entry the walk meets (its task finished, or is being raced) is dropped
// on the spot: its key becomes −Inf and it sinks to the leaves, which
// moves nothing outside the subtree being walked. Entries of finished
// tasks that no query meets (they sit below the cut) are swept out once
// they outnumber the phase's running tasks (victimBucket.running), and
// the arrays shrink with them: a bucket holds a small multiple of what
// its phase has running now, not every task it ever placed nor the
// largest wave it ever saw.
//
// An index instance lives inside one scheduler's Monitor and indexes only
// tasks that scheduler handed out. The caller must report every hand-out
// (TaskHandedOut) and every original placement (OriginalCopyPlaced):
// scheduler.Base and decentral.New make that promise wherever
// Config.IndexExact holds; the live adapter does not.

// victimEntry is one original copy's immutable index record: the task and
// the heap's key — Copies[0].Start in ripening, Copies[0].Finish() in
// ready. A dropped ready entry has t == nil and key == −Inf.
type victimEntry struct {
	t   *cluster.Task
	key float64
}

// eligible reports whether the entry's task is still a victim candidate.
// See the file comment: under MaxCopies == 2 this is exact.
func (e victimEntry) eligible() bool {
	return e.t != nil && e.t.State == cluster.TaskRunning && len(e.t.Copies) == 1
}

// elapsed (of a ripening entry) and remaining (of a ready one) are the
// scan's Copy.WorkElapsed and Copy.WorkRemaining at unit speed (x·1 == x)
// on the cached Start and Finish: the same float operations, so ripeness
// and the t_new cut cannot disagree with the scan.
func (e victimEntry) elapsed(now float64) float64 { return now - e.key }

func (e victimEntry) remaining(now float64) float64 { return max(0, e.key-now) }

// victimBucket indexes one phase's original copies.
type victimBucket struct {
	ripening []victimEntry // min-heap by start
	ready    []victimEntry // max-heap by (finish, then min pos)

	// running counts the phase's indexed tasks that have not completed
	// (OriginalCopyPlaced up, TaskCompleted down). Entries beyond it are
	// garbage: their tasks are done.
	running int
}

func ripeLess(a, b victimEntry) bool { return a.key < b.key }

func readyLess(a, b victimEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.t == nil || b.t == nil {
		return false // dropped entries are all alike
	}
	return a.t.VictimPos < b.t.VictimPos
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
	*h = q[:n]
	siftDown(q[:n], 0, less)
	return top
}

func siftDown(q []victimEntry, i int, less func(a, b victimEntry) bool) {
	n := len(q)
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
			return
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
}

// drop discards the ready entry at i, which must be ineligible: it sinks
// below every live entry of its subtree (nothing outside the subtree
// moves, so a walk in progress above it stays valid). Position i then
// holds the larger of the entry's children, or another dropped entry.
func (b *victimBucket) drop(i int) {
	b.ready[i] = victimEntry{key: math.Inf(-1)}
	siftDown(b.ready, i, readyLess)
}

// minHeapCap is the capacity a bucket's heaps start with (less for a
// smaller phase), and the slack the garbage bound allows.
const minHeapCap = 8

// ripen moves every entry that has become observable by now from the
// ripening heap to the ready heap. The test is the scan's (a copy is
// skipped while WorkElapsed < delay); it is monotone in start, so the
// first entry that fails it ends the sweep. Every query starts here, so
// this is also where a bucket whose entries are mostly garbage is swept.
func (b *victimBucket) ripen(now, delay float64) {
	if len(b.ripening)+len(b.ready) > 2*b.running+minHeapCap {
		b.ripening = sweep(b.ripening, ripeLess)
		b.ready = sweep(b.ready, readyLess)
	}
	for len(b.ripening) > 0 && !(b.ripening[0].elapsed(now) < delay) {
		e := heapPop(&b.ripening, ripeLess)
		if e.eligible() {
			heapPush(&b.ready, victimEntry{e.t, e.t.Copies[0].Finish()}, readyLess)
		}
	}
}

// sweep removes the ineligible entries of a heap and moves what is left
// to a smaller array when it fills under a quarter of the old one. A
// sweep runs when garbage entries outnumber the running tasks, and leaves
// at most one entry per running task, so it removes more than half of
// what it visits: O(1) per entry ever pushed, amortized.
func sweep(q []victimEntry, less func(a, b victimEntry) bool) []victimEntry {
	live := q[:0]
	for _, e := range q {
		if e.eligible() {
			live = append(live, e)
		}
	}
	clear(q[len(live):])
	if n := max(2*len(live), minHeapCap); 2*n < cap(q) {
		live = append(make([]victimEntry, 0, n), live...)
	}
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(live, i, less)
	}
	return live
}

// jobVictims is one job's victim index: one bucket per phase, by
// Phase.Index. Jobs have a handful of phases, so a query sweeps them all;
// a phase with nothing placed costs two length checks. The zero value is
// "no index" (buckets == nil): the job has handed out nothing yet, or the
// index is off.
type jobVictims struct {
	job     *cluster.Job
	buckets []victimBucket
	nextPos int

	// quietUntil and quietAt cache the answer "this job has no victim": a
	// query that finds none records the earliest time one could appear
	// without the index hearing of it first, and the job's completion
	// count. Until then, and while no task of the job completes (t_new
	// moves) and no original is placed (OriginalCopyPlaced resets the
	// bound), every query is empty — remaining times only shrink, lost
	// eligibility never returns, so only a ripening entry turning
	// observable can make a victim. A held job is asked on every dispatch
	// pass; 99 % of BestVictimFor calls on the centralized benchmark end
	// here.
	quietUntil float64
	quietAt    int
}

// ripen brings every bucket up to now (victimBucket.ripen) and returns
// the bound a query that then finds no victim caches in quietUntil: the
// earliest time an entry still ripening can turn observable.
func (ji *jobVictims) ripen(now, delayFrac float64) (unripeUntil float64) {
	unripeUntil = math.Inf(1)
	for p := range ji.buckets {
		b := &ji.buckets[p]
		if len(b.ripening) == 0 && len(b.ready) == 0 {
			continue
		}
		delay := delayFrac * ji.job.Phases[p].MeanTaskDuration
		b.ripen(now, delay)
		if len(b.ripening) > 0 {
			unripeUntil = min(unripeUntil, unripeBefore(b.ripening[0].key, delay))
		}
	}
	return unripeUntil
}

// quiet reports whether the cached empty answer still holds at now for a
// job whose history is at the given version.
func (ji *jobVictims) quiet(now float64, version int) bool {
	return now < ji.quietUntil && version == ji.quietAt
}

// unripeBefore returns a time before which a copy started at start is
// certainly unobservable by the scan's test (now − start < delay),
// whatever the rounding: the exact boundary start + delay, shaved by a
// relative 1e-12 — four orders of magnitude above the rounding error of
// the subtraction and of this expression. Erring early only costs a full
// query.
func unripeBefore(start, delay float64) float64 { return (start + delay) * (1 - 1e-12) }

// EnableIndex switches the monitor's speculation queries from the linear
// scans to the heap index. It requires the exact-equivalence conditions a
// config shows (Config.IndexExact; see the file comment) and panics
// otherwise — enabling the index must never be able to change simulation
// results.
func (m *Monitor) EnableIndex() {
	if !m.cfg.IndexExact() {
		panic("speculation: victim index requires MaxCopies == 2 and noise-free estimates")
	}
	m.indexOn = true
}

// DisableIndex returns the monitor to the linear scans for good. Always
// safe, at any point in a run: the scans keep no state of their own.
func (m *Monitor) DisableIndex() {
	m.indexOn = false
	for _, js := range m.jobs {
		js.victims = jobVictims{}
	}
}

// IndexEnabled reports whether the For queries answer from the index:
// EnableIndex was called and nothing has downgraded the monitor since.
func (m *Monitor) IndexEnabled() bool { return m.indexOn }

// TaskHandedOut records a fresh task entering its scheduler's running set,
// assigning its hand-out rank. Call immediately after RunningSet.Add; a
// no-op when the index is disabled.
func (m *Monitor) TaskHandedOut(t *cluster.Task) {
	if !m.indexOn {
		return
	}
	ji := &m.job(t.Job.ID).victims
	if ji.buckets == nil {
		*ji = jobVictims{job: t.Job, buckets: make([]victimBucket, len(t.Job.Phases))}
	}
	t.VictimPos = ji.nextPos
	ji.nextPos++
}

// OriginalCopyPlaced indexes a task's original copy once it has a machine
// (Start and Duration are now fixed). Call after the executor places a
// non-speculative copy; a no-op when the index is disabled.
func (m *Monitor) OriginalCopyPlaced(t *cluster.Task) {
	if !m.indexOn {
		return
	}
	js := m.jobs[t.Job.ID]
	if js == nil || js.victims.buckets == nil {
		return // job already completed (e.g. placement raced job teardown)
	}
	ji := &js.victims
	c := t.Copies[0]
	if c.WorkDuration() != c.Duration {
		// Heap keys assume remaining work is monotone in wall-clock finish,
		// which holds only when every copy runs at the same speed. The first
		// off-speed placement permanently downgrades this monitor to the
		// scan (still exact; the index is a pure optimization).
		m.DisableIndex()
		return
	}
	b := &ji.buckets[t.Phase.Index]
	if b.ripening == nil {
		n := min(len(t.Phase.Tasks), minHeapCap)
		b.ripening = make([]victimEntry, 0, n)
		b.ready = make([]victimEntry, 0, n)
	}
	b.running++
	heapPush(&b.ripening, victimEntry{t, c.Start}, ripeLess)
	ji.quietUntil = math.Inf(-1)
}

// indexed reports whether queries under this copy cap are answered from
// the index.
func (m *Monitor) indexed(maxCopies int) bool { return m.indexOn && maxCopies == 2 }

// BestVictimFor is BestVictim answered from the index when it is enabled
// (falling back to the scan otherwise): the observable single-copy task
// with the largest remaining time whose fresh copy would beat it. jobID
// scopes the index; running is only consulted on the scan path.
func (m *Monitor) BestVictimFor(now float64, jobID cluster.JobID, running []*cluster.Task, maxCopies int) *cluster.Task {
	if !m.indexed(maxCopies) {
		return m.BestVictim(now, running, maxCopies)
	}
	js := m.jobs[jobID]
	if js == nil || js.victims.quiet(now, js.version) {
		return nil
	}
	ji, hist := &js.victims, js.deep(m.slowPct)
	unripeUntil := ji.ripen(now, m.cfg.DetectDelayFrac)
	var victim *cluster.Task
	var victimRem float64
	for p := range ji.buckets {
		b := &ji.buckets[p]
		for len(b.ready) > 0 && !b.ready[0].eligible() {
			heapPop(&b.ready, readyLess)
		}
		if len(b.ready) == 0 {
			continue
		}
		e := b.ready[0]
		rem := e.remaining(now)
		if rem <= estNew(hist, ji.job.Phases[p]) {
			continue // the bucket's max remaining fails the cut; all do
		}
		if victim == nil || rem > victimRem || (rem == victimRem && e.t.VictimPos < victim.VictimPos) {
			victim, victimRem = e.t, rem
		}
	}
	if victim == nil {
		ji.quietUntil, ji.quietAt = unripeUntil, js.version
	}
	return victim
}

// CandidatesFor is CandidatesInto (unlimited budget) answered from the
// index when it is enabled: the tasks of the job the policy wants to
// speculate, in running-set order — except those already flagged
// SpecWanted, which the caller's want queue would drop. running is only
// consulted on the scan path, which returns the flagged ones too.
func (m *Monitor) CandidatesFor(now float64, jobID cluster.JobID, running []*cluster.Task, dst []*cluster.Task) []*cluster.Task {
	if !m.indexOn { // on implies the monitor's own cap is 2 (EnableIndex)
		return m.CandidatesInto(now, running, -1, dst)
	}
	return m.walk(now, jobID, true, dst)
}

// VictimsFor is VictimsInto answered from the index when it is enabled:
// every task BestVictimFor would consider, in running-set order — except
// those already flagged SpecWanted, as in CandidatesFor.
func (m *Monitor) VictimsFor(now float64, jobID cluster.JobID, running []*cluster.Task, maxCopies int, dst []*cluster.Task) []*cluster.Task {
	if !m.indexed(maxCopies) {
		return m.VictimsInto(now, running, maxCopies, dst)
	}
	return m.walk(now, jobID, false, dst)
}

// walk collects, over every bucket of the job, the eligible entries not
// yet flagged SpecWanted whose remaining time beats t_new — and, with
// policy set, that the policy wants — sorted by hand-out pos.
func (m *Monitor) walk(now float64, jobID cluster.JobID, policy bool, dst []*cluster.Task) []*cluster.Task {
	out := dst[:0]
	js := m.jobs[jobID]
	if js == nil || js.victims.quiet(now, js.version) {
		return out
	}
	ji, hist := &js.victims, js.deep(m.slowPct)
	unripeUntil := ji.ripen(now, m.cfg.DetectDelayFrac)
	victims := false // any at all, wanted ones included
	for p := range ji.buckets {
		b := &ji.buckets[p]
		tNew := estNew(hist, ji.job.Phases[p])
		stack := append(m.walkStack[:0], 0)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i < len(b.ready) {
				e := b.ready[i]
				if e.t == nil || e.remaining(now) <= tNew {
					break // fails the cut, and so does its whole subtree
				}
				if !e.eligible() {
					b.drop(i)
					continue // i now holds one of its children
				}
				victims = true
				if !e.t.SpecWanted && (!policy || m.cfg.Policy.Wants(m.estimates(now, e.t, e.t.Copies[0], hist))) {
					out = append(out, e.t)
				}
				stack = append(stack, 2*i+2)
				i = 2*i + 1
			}
		}
		m.walkStack = stack
	}
	if !victims {
		ji.quietUntil, ji.quietAt = unripeUntil, js.version
	}
	slices.SortFunc(out, func(a, b *cluster.Task) int { return a.VictimPos - b.VictimPos })
	return out
}
