package speculation

import (
	"math"
	"slices"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// Victim index: the one structure that answers a scheduler's three
// speculation questions about a job without visiting its running set —
// which task to race (Book.BestVictim), which tasks the policy newly
// wants and which victims are ripe (the two walks behind Book.Scan). It
// answers exactly what the scans (BestVictim, CandidatesInto,
// VictimsInto) answer over the same running set, under any copy cap k, at
// any mix of machine speeds, and with copies lost mid-task; the scans stay
// as the tests' reference and the benchmark's speculation row, and
// nothing that ships calls them.
//
// Structure: per phase, per copy speed, two heaps of immutable
// entries — a ripening min-heap ordered by Start holding copies too young
// to observe, and a ready max-heap ordered by (Finish desc, hand-out pos
// asc) holding observable ones. A task has at most one live entry: the
// one for its representative copy (Task.VictimCopy), its oldest live
// copy, t.Copies[0]. Heap order only says whom to test next: whether the
// entry at the top of ripening is observable, and how much work a ready
// entry has left, is decided by the scan's own expressions on that entry
// — at the bucket's speed s, (now − Start)·s against the delay and
// max(0, Finish − now)·s against t_new, which are Copy.WorkElapsed and
// Copy.WorkRemaining to the bit — so the two paths cannot part by a
// rounding at a boundary (a precomputed Start + delay <= now would: it
// differs from now − Start >= delay by an ulp there). Both expressions
// are monotone in the heap's key within one speed, which is what makes
// stopping at the first failure exact; a sub-bucket exists only for a
// speed a copy of the phase has landed at, and shipped fleets have at
// most three.
//
// Why the answers are the scan's, under the three things that used to
// put a scheduler back on the scan:
//
//   - Off-speed copies. A bucket holds one speed, so its heap keys order
//     its entries exactly as the scan's work expressions do; the queries
//     sweep every bucket of the job. The cached "no victim" bound waits
//     for the earliest ripening entry at delay/s (unripeBefore).
//   - Copies lost mid-task (churn, live worker loss). An entry counts only
//     while its copy is still the task's representative: a task that
//     completes or is requeued loses its entry, and one whose
//     representative dies is re-keyed to the surviving copy (CopyDropped,
//     through protocol.Sched.CopyLost — the one place a copy dies outside
//     completion), which also clears the cached "no victim" answer, since
//     a task back under the cap may be a victim again.
//   - Cap k. The scan races a running task with an observable copy and
//     fewer than k live copies. While a task runs, every copy in Copies is
//     live (a copy leaves it when it dies, Task.DropCopy, and all end
//     together at the win), so the cap is len(Copies) < k, checked
//     wherever a query meets an entry. An entry met at the cap is
//     discarded and the task left without one; the copy loss that brings
//     it back under the cap (CopyDropped), or a late copy landing
//     (CopyPlaced), indexes it again. With k = 1 nothing is indexed. For
//     k > 2 the representative stands in for the task: a speculative copy
//     is placed only for a task a query found, that is once its
//     representative was observable, so the task's best observable
//     remaining is at most the representative's and a subtree whose root
//     fails the t_new cut on its key holds no victim. Each task a walk
//     visits is then measured with the scan's own observable(); when the
//     representative is its only copy — always under k = 2 — that is the
//     entry's own number. (The one history this does not cover, and no
//     shipped configuration produces: k ≥ 3 copies at different speeds
//     losing the representative, where the next-oldest copy may still be
//     unripe while a younger, faster one is observable.)
//
// t_new is uniform within a (job, phase) bucket (job median once five
// completions exist, else the phase mean), so the cut is decided per
// bucket.
//
// The three queries:
//
//   - bestVictim ripens due entries and walks each ready heap from the
//     root, pruning a subtree whose root fails the t_new cut or falls
//     below the best true remaining found so far; it keeps the largest
//     true remaining, ties broken by hand-out order — bit-for-bit the
//     scan's answer (the scan keeps the first of equals in running-set
//     order, which is hand-out order). Under k = 2 the root's remaining
//     is exact and the walk stops at the top unless a child ties it.
//   - walk, for victims, goes down each ready heap from the root, pruning
//     a subtree at the first entry that fails the t_new cut: it visits the
//     victims (plus at most two failing children each), not the running
//     set.
//   - walk, for candidates, is the same walk with the policy applied to
//     each victim, through the scan's own Estimates. Every shipped policy's
//     rule implies Remaining > New (TestPoliciesImplyVictim pins it for
//     whatever ByName returns), so the policy's candidates are a subset
//     of the victims and the pruned walk loses none.
//
// Both walks skip entries already flagged Task.SpecWanted — the caller's
// want queue drops those anyway — and return the rest sorted by hand-out
// pos, i.e. in the running-set order the scans return. An ineligible
// entry the walk meets is dropped on the spot: its key becomes −Inf and
// it sinks to the leaves, which moves nothing outside the subtree being
// walked. Entries no query meets (they sit below the cut) are swept out
// once they outnumber the phase's running tasks (victimBucket.running),
// and the arrays shrink with them: a bucket holds a small multiple of
// what its phase has running now, not every copy it ever indexed nor the
// largest wave it ever saw.
//
// An index lives in one job's Monitor, inside its owner's JobBook, and
// indexes only the tasks of that job its scheduler handed out. The
// queries share their Book's walk stack, so no job keeps one of its own.
// The caller reports every addition to the job's running set
// (TaskHandedOut), every placement onto a task that may have no entry yet
// (CopyPlaced — a task handed out before its first copy landed, or whose
// copies were lost), every copy lost and every hand-out that failed
// without a copy (CopyDropped, through protocol.Sched.CopyLost) and every
// completion (TaskCompleted).

// victimEntry is one copy's immutable index record: the task, its
// representative copy when indexed, and the heap's key — c.Start in
// ripening, c.Finish() in ready. A dropped ready entry has t == nil and
// key == −Inf.
type victimEntry struct {
	t   *cluster.Task
	c   *cluster.Copy
	key float64
}

// current reports whether the entry is its task's live entry: the task
// runs, is handed out, and is keyed by this copy.
func (e victimEntry) current() bool { return e.t != nil && e.t.VictimCopy == e.c }

// eligible reports whether the entry's task is still a victim candidate
// under copy cap k. See the file comment: this is the scan's test.
func (e victimEntry) eligible(k int) bool { return e.current() && len(e.t.Copies) < k }

// release is how an entry leaves the heaps: a task whose live entry it
// was is left without one (CopyPlaced and CopyDropped index it again).
func (e victimEntry) release() {
	if e.current() {
		e.t.VictimCopy = nil
	}
}

// victimBucket indexes one phase's representative copies of one speed.
type victimBucket struct {
	phase int     // Phase.Index
	speed float64 // every entry's Copy.SpeedFactor; 0 while unclaimed
	// ripening is a min-heap by start; ready a max-heap by (finish, then
	// min pos).
	ripening, ready []victimEntry

	// running counts the phase's handed-out tasks that have not completed
	// or been requeued (TaskHandedOut up, retire down); entries beyond it
	// are garbage. Only a phase's first bucket (index Phase.Index) keeps
	// it, for all of the phase's speeds.
	running int
}

// elapsed (of a ripening entry) and remaining (of a ready one) are the
// scan's Copy.WorkElapsed and Copy.WorkRemaining on the cached Start and
// Finish: the same float operations at the same speed factor, so
// ripeness and the t_new cut cannot disagree with the scan.
func (b *victimBucket) elapsed(e victimEntry, now float64) float64 { return (now - e.key) * b.speed }

func (b *victimBucket) remaining(e victimEntry, now float64) float64 {
	return max(0, e.key-now) * b.speed
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
	q[n] = victimEntry{} // release the pointers for GC
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
	b.ready[i].release()
	b.ready[i] = victimEntry{key: math.Inf(-1)}
	siftDown(b.ready, i, readyLess)
}

// firstHeapCap is the capacity a bucket's heaps start with, less for a
// smaller phase: a phase of up to that many tasks never grows them.
// minHeapCap is the least a sweep shrinks them to, and the slack the
// garbage bound allows.
const (
	firstHeapCap = 64
	minHeapCap   = 8
)

// ripen moves every entry that has become observable by now from the
// ripening heap to the ready heap. The test is the scan's (a copy is
// skipped while WorkElapsed < delay); it is monotone in start, so the
// first entry that fails it ends the sweep. Every query starts here, so
// this is also where a bucket whose entries are mostly garbage (more than
// twice its phase's running tasks) is swept.
func (b *victimBucket) ripen(now, delay float64, running, k int) {
	if len(b.ripening)+len(b.ready) > 2*running+minHeapCap {
		b.ripening = sweep(b.ripening, k, ripeLess)
		b.ready = sweep(b.ready, k, readyLess)
	}
	for len(b.ripening) > 0 && !(b.elapsed(b.ripening[0], now) < delay) {
		e := heapPop(&b.ripening, ripeLess)
		if !e.eligible(k) {
			e.release()
			continue
		}
		heapPush(&b.ready, victimEntry{e.t, e.c, e.c.Finish()}, readyLess)
	}
}

// sweep removes the ineligible entries of a heap and moves what is left
// to a smaller array when it fills under a quarter of the old one. A
// sweep runs when entries outnumber twice the running tasks, and leaves
// at most one per running task, so it removes more than half of what it
// visits: O(1) per entry ever pushed, amortized.
func sweep(q []victimEntry, k int, less func(a, b victimEntry) bool) []victimEntry {
	live := q[:0]
	for _, e := range q {
		if e.eligible(k) {
			live = append(live, e)
		} else {
			e.release()
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

// jobVictims is one job's victim index. buckets[p] for p below the job's
// phase count is phase p's first speed class; further classes, created
// when a copy of a new speed lands, follow in landing order. A query
// sweeps them all; a bucket with nothing indexed costs two length
// checks. The zero value is "no index" (buckets == nil): the job has
// handed out nothing yet.
type jobVictims struct {
	job     *cluster.Job
	buckets []victimBucket
	nextPos int

	// quietUntil and quietAt cache the answer "this job has no victim": a
	// query that finds none records the earliest time one could appear
	// without the index hearing of it first, and the job's completion
	// count. Until then, and while no task of the job completes (t_new
	// moves), no copy is indexed (index resets the bound) and none is lost
	// (CopyDropped does), every query is empty — remaining times only
	// shrink, a task's best observable remaining with them, and eligibility
	// lost at the cap returns only through a lost copy — so only a ripening
	// entry turning observable can make a victim. A held job is asked on
	// every dispatch pass; 99 % of bestVictim calls on the centralized
	// benchmark end here.
	quietUntil float64
	quietAt    int
}

// bucket returns the bucket for phase p's copies at speed s, creating it
// on first use.
func (ji *jobVictims) bucket(p int, s float64) *victimBucket {
	if b := &ji.buckets[p]; b.speed == s || b.speed == 0 {
		b.speed = s
		return b
	}
	for i := len(ji.job.Phases); i < len(ji.buckets); i++ {
		if b := &ji.buckets[i]; b.phase == p && b.speed == s {
			return b
		}
	}
	ji.buckets = append(ji.buckets, victimBucket{phase: p, speed: s})
	return &ji.buckets[len(ji.buckets)-1]
}

// index makes c, a live copy of the running task t, its representative
// and enters it into the ripening heap of its phase and speed.
func (ji *jobVictims) index(t *cluster.Task, c *cluster.Copy) {
	t.VictimCopy = c
	b := ji.bucket(t.Phase.Index, c.SpeedFactor())
	if b.ripening == nil {
		// One array backs both heaps until either outgrows its half.
		n := min(len(t.Phase.Tasks), firstHeapCap)
		buf := make([]victimEntry, 2*n)
		b.ripening, b.ready = buf[:0:n], buf[n:n]
	}
	heapPush(&b.ripening, victimEntry{t, c, c.Start}, ripeLess)
	ji.quietUntil = math.Inf(-1)
}

// track indexes a handed-out running task's oldest live copy unless it is
// the representative already.
func (ji *jobVictims) track(t *cluster.Task) {
	if t.VictimPos == 0 || t.State != cluster.TaskRunning || len(t.Copies) == 0 || t.VictimCopy == t.Copies[0] {
		return
	}
	ji.index(t, t.Copies[0])
}

// retire takes a task out of the index when it leaves its scheduler's
// running set — completed, or requeued with no copy left. Its entries
// are garbage from here on.
func (ji *jobVictims) retire(t *cluster.Task) {
	if t.VictimPos != 0 && ji.buckets != nil {
		ji.buckets[t.Phase.Index].running--
	}
	t.VictimPos, t.VictimCopy = 0, nil
}

// ripen brings every bucket up to now (victimBucket.ripen) and returns
// the bound a query that then finds no victim caches in quietUntil: the
// earliest time an entry still ripening can turn observable.
func (ji *jobVictims) ripen(now, delayFrac float64, k int) (unripeUntil float64) {
	unripeUntil = math.Inf(1)
	for i := range ji.buckets {
		b := &ji.buckets[i]
		if len(b.ripening) == 0 && len(b.ready) == 0 {
			continue
		}
		delay := delayFrac * ji.job.Phases[b.phase].MeanTaskDuration
		b.ripen(now, delay, ji.buckets[b.phase].running, k)
		if len(b.ripening) > 0 {
			unripeUntil = min(unripeUntil, unripeBefore(b.ripening[0].key, delay/b.speed))
		}
	}
	return unripeUntil
}

// quiet reports whether the cached empty answer still holds at now for a
// job whose history is at the given version (Monitor.version).
func (ji *jobVictims) quiet(now float64, version int) bool {
	return now < ji.quietUntil && version == ji.quietAt
}

// unripeBefore returns a time before which a copy started at start is
// certainly unobservable by the scan's test ((now − start)·s < delay, with
// wait = delay/s), whatever the rounding: the exact boundary start + wait,
// shaved by a relative 1e-12 — four orders of magnitude above the
// rounding error of the subtraction, the products and this expression.
// Erring early only costs a full query.
func unripeBefore(start, wait float64) float64 { return (start + wait) * (1 - 1e-12) }

// TaskHandedOut records a task entering its scheduler's running set,
// assigning its hand-out rank, and indexes its oldest live copy if it has
// one already. Book.HandedOut calls it for every original hand-out.
func (m *Monitor) TaskHandedOut(t *cluster.Task) {
	if m.cfg.MaxCopies < 2 {
		return // a cap of one races nothing: no entries at all
	}
	ji := &m.victims
	if ji.buckets == nil {
		*ji = jobVictims{job: t.Job, buckets: make([]victimBucket, len(t.Job.Phases))}
		for p := range ji.buckets {
			ji.buckets[p].phase = p
		}
	}
	ji.nextPos++
	t.VictimPos = ji.nextPos
	ji.buckets[t.Phase.Index].running++
	ji.track(t)
}

// CopyPlaced indexes a handed-out task's first live copy once it has a
// machine (its Start and Duration are now fixed). Call after every
// placement onto a task that may have no entry: adapters that hand a task
// out before its copy lands call it for each copy they place; a no-op for
// a task that is already indexed.
func (m *Monitor) CopyPlaced(t *cluster.Task) { m.victims.track(t) }

// CopyDropped settles a copy of t that died without finishing the task
// (after the adapter took it out of t.Copies), or a hand-out of t that
// failed before its copy landed. A task left with no copy is requeued: it
// leaves the index until it is handed out again. Otherwise a surviving
// copy is re-keyed if the representative died, and the cached empty
// answer is dropped, because a task back under the cap may be a victim
// again.
func (m *Monitor) CopyDropped(t *cluster.Task) {
	if t.VictimPos == 0 || t.State != cluster.TaskRunning {
		return
	}
	ji := &m.victims
	if len(t.Copies) == 0 {
		ji.retire(t)
		return
	}
	ji.track(t)
	ji.quietUntil = math.Inf(-1)
}

// best returns the task's best observable copy and its remaining work,
// given a ready entry whose own remaining is r: the entry's copy and r
// when it is the task's only copy, else the scan's observable() answer,
// which the representative bounds from above.
func (m *Monitor) best(now float64, e victimEntry, r float64) (*cluster.Copy, float64) {
	if len(e.t.Copies) == 1 {
		return e.c, r
	}
	_, best := m.observable(now, e.t)
	return best, best.WorkRemaining(now)
}

// bestVictim is BestVictim over the job's running set, answered from the
// index: the observable task below the copy cap with the largest
// remaining time whose fresh copy would beat it. stack is the walk's
// reusable stack of pending subtrees (Book.walkStack).
func (m *Monitor) bestVictim(now float64, stack *[]int) *cluster.Task {
	ji := &m.victims
	if ji.quiet(now, m.version) {
		return nil
	}
	hist, k := m.history(), m.cfg.MaxCopies
	unripeUntil := ji.ripen(now, m.cfg.DetectDelayFrac, k)
	var victim *cluster.Task
	var victimRem float64
	for i := range ji.buckets {
		b := &ji.buckets[i]
		if len(b.ready) == 0 {
			continue
		}
		tNew := estNew(hist, ji.job.Phases[b.phase])
		pending := append((*stack)[:0], 0)
		for len(pending) > 0 {
			j := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			for j < len(b.ready) {
				e := b.ready[j]
				r := b.remaining(e, now)
				if e.t == nil || r <= tNew || (victim != nil && r < victimRem) {
					break // nothing in the subtree beats the cut or the victim
				}
				if !e.eligible(k) {
					b.drop(j)
					continue // j now holds one of its children
				}
				if _, rem := m.best(now, e, r); rem > tNew &&
					(victim == nil || rem > victimRem || (rem == victimRem && e.t.VictimPos < victim.VictimPos)) {
					victim, victimRem = e.t, rem
				}
				pending = append(pending, 2*j+2)
				j = 2*j + 1
			}
		}
		*stack = pending
	}
	if victim == nil {
		ji.quietUntil, ji.quietAt = unripeUntil, m.version
	}
	return victim
}

// walk collects, over every bucket of the job, the eligible tasks not yet
// flagged SpecWanted whose best observable remaining beats t_new — and,
// with policy set, that the policy wants — sorted by hand-out pos: with
// policy, CandidatesInto (unlimited budget) over the job's running set;
// without, VictimsInto; either minus the tasks already flagged
// SpecWanted, which the caller's want queue would drop. stack is as in
// bestVictim, and dst is truncated and reused.
func (m *Monitor) walk(now float64, policy bool, stack *[]int, dst []*cluster.Task) []*cluster.Task {
	out := dst[:0]
	ji := &m.victims
	if ji.quiet(now, m.version) {
		return out
	}
	hist, k := m.history(), m.cfg.MaxCopies
	unripeUntil := ji.ripen(now, m.cfg.DetectDelayFrac, k)
	victims := false // any at all, wanted ones included
	for i := range ji.buckets {
		b := &ji.buckets[i]
		tNew := estNew(hist, ji.job.Phases[b.phase])
		pending := append((*stack)[:0], 0)
		for len(pending) > 0 {
			j := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			for j < len(b.ready) {
				e := b.ready[j]
				r := b.remaining(e, now)
				if e.t == nil || r <= tNew {
					break // fails the cut, and so does its whole subtree
				}
				if !e.eligible(k) {
					b.drop(j)
					continue // j now holds one of its children
				}
				if best, rem := m.best(now, e, r); rem > tNew {
					victims = true
					if !e.t.SpecWanted && (!policy || m.cfg.Policy.Wants(m.estimates(now, e.t, best, hist))) {
						out = append(out, e.t)
					}
				}
				pending = append(pending, 2*j+2)
				j = 2*j + 1
			}
		}
		*stack = pending
	}
	if !victims {
		ji.quietUntil, ji.quietAt = unripeUntil, m.version
	}
	slices.SortFunc(out, func(a, b *cluster.Task) int { return a.VictimPos - b.VictimPos })
	return out
}
