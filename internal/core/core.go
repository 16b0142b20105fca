// Package core implements Hopper's speculation-aware allocation rules —
// the paper's primary contribution (Sections 4 and 5):
//
//   - Virtual job sizes V_i(t) = (2/beta) * T_i(t) * sqrt(alpha_i), the
//     "desired minimum allocation" at the knee of the marginal-value-of-
//     slots curve (Guideline 1, Figure 3).
//   - The two allocation regimes of Pseudocode 1: when the cluster cannot
//     give every job its virtual size, dedicate slots to the smallest
//     jobs, each up to its virtual size (Guideline 2, SRPT-spirit); when
//     it can, share the surplus proportionally to virtual sizes, which
//     favors *large* jobs because stragglers arrive in proportion to task
//     count (Guideline 3).
//   - epsilon-fairness (Section 4.3): every job is guaranteed at least
//     (1-epsilon) * S/N slots, implemented as a projection of the
//     guideline allocation onto the fair feasible set.
//   - The locality relaxation window (Section 4.4): any of the smallest
//     k% of jobs with data-local work may be served first.
//
// The package is pure: it depends on nothing but the standard library and
// operates on plain JobDemand values, so the same functions drive the
// centralized simulator engine, the decentralized worker logic, and the
// live TCP cluster.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// JobDemand is the allocator's view of one active job.
type JobDemand struct {
	// ID is an opaque job identifier used to report allocations.
	ID int64

	// Remaining is T_i(t): the number of unfinished tasks in the job's
	// currently runnable phase(s).
	Remaining int

	// Alpha is the DAG communication weighting from Section 4.2: the
	// ratio of remaining downstream network-transfer work to remaining
	// work in the current phase. 1 for single-phase jobs or when unknown.
	Alpha float64

	// DownstreamVirtual is V'_i(t): the virtual remaining downstream
	// communication work in slot units. The DAG-aware priority order uses
	// max(V_i, V'_i); zero when not applicable.
	DownstreamVirtual float64

	// MaxUsable caps how many slots the job can actually occupy right now
	// (remaining tasks times the per-task copy cap). The allocator never
	// assigns more than this; surplus flows to other jobs. Zero means
	// "no cap".
	MaxUsable int
}

// VirtualSize returns V_i(t) = (2/beta) * remaining * sqrt(alpha): the
// desired minimum allocation for a job whose task durations have Pareto
// tail index beta. beta is clamped into (1, 2] (see stats.ClampBeta for
// rationale); alpha <= 0 is treated as 1.
func VirtualSize(remaining int, beta, alpha float64) float64 {
	if remaining <= 0 {
		return 0
	}
	if beta < 1.05 {
		beta = 1.05
	} else if beta > 2 {
		beta = 2
	}
	if alpha <= 0 {
		alpha = 1
	}
	return 2 / beta * float64(remaining) * math.Sqrt(alpha)
}

// Priority returns the DAG-aware ordering key from Section 4.2:
// max(V_i(t), V'_i(t)). Smaller is served earlier under Guideline 2.
func (j JobDemand) Priority(beta float64) float64 {
	v := VirtualSize(j.Remaining, beta, j.Alpha)
	if j.DownstreamVirtual > v {
		return j.DownstreamVirtual
	}
	return v
}

// Virtual returns the job's virtual size under the given beta.
func (j JobDemand) Virtual(beta float64) float64 {
	return VirtualSize(j.Remaining, beta, j.Alpha)
}

func (j JobDemand) cap(x int) int {
	if j.MaxUsable > 0 && x > j.MaxUsable {
		return j.MaxUsable
	}
	return x
}

// TotalVirtual sums virtual sizes across jobs.
func TotalVirtual(jobs []JobDemand, beta float64) float64 {
	var t float64
	for _, j := range jobs {
		t += j.Virtual(beta)
	}
	return t
}

// Constrained reports whether the cluster is in the high-load regime of
// Guideline 2: fewer slots than the sum of virtual sizes.
func Constrained(jobs []JobDemand, slots int, beta float64) bool {
	return float64(slots) < TotalVirtual(jobs, beta)
}

// Allocate implements Pseudocode 1. It returns one slot count per job,
// aligned with the input slice, summing to at most slots. Jobs are never
// given more than their MaxUsable cap; freed-up surplus cascades to other
// jobs in guideline order, keeping the allocation work-conserving. It is
// AllocateFair with the floor disabled (epsilon = 1).
func Allocate(jobs []JobDemand, slots int, beta float64) []int {
	return AllocateFair(jobs, slots, beta, 1)
}

// keyed is a sort key with the index it belongs to. Sorting on
// (key, idx) is a total order, so an unstable sort yields exactly the
// permutation a stable sort on key alone would.
type keyed struct {
	key float64
	idx int
}

func ascending(a, b keyed) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return a.idx - b.idx
}

// Allocator computes AllocateFair allocations and keeps every working
// slice between calls, so a scheduler that refreshes its allocation on
// every arrival allocates nothing once the buffers have grown to its
// active-job count. The zero value is ready to use. It is not safe for
// concurrent use.
//
// Each call orders the jobs by priority once: from scratch, or, given a
// hint (the last call's order carried over to this call's indices), by
// repairing the hinted order with an insertion sort. Every projection
// round reuses that order, filtered to the jobs still unpinned, and the
// caller can read it back (Order) instead of sorting again.
type Allocator struct {
	virt  []float64 // virtual sizes, aligned with the input
	prio  []float64 // priority keys max(V, V'), aligned with the input
	order []keyed   // (prio, input index) ascending: the call's one ordering
	perm  []int     // order's indices, returned by Order
	fracs []keyed   // the proportional regime's remainder candidates, keyed by −fraction

	// The projection rounds' state: the jobs still unpinned (ascending
	// input indices), each job's position among them (−1 once pinned), and
	// the subproblem over them with its priority order and allocation.
	active   []int
	pos      []int
	sub      []JobDemand
	subVirt  []float64
	subOrder []keyed
	subAlloc []int

	alloc []int // the result

	// Calls counts Allocate calls, Hinted those given an order hint, and
	// Fallbacks the hinted calls whose hint was too far from sorted for
	// the insertion sort's shift bound, so that a full sort finished the
	// order. They let a caller check that its hints are used.
	Calls, Hinted, Fallbacks uint64
}

// resized returns s with length n, reallocating only when its capacity is
// short, and then with append's headroom, so a job count that creeps up
// one at a time does not reallocate on every call. The contents are
// unspecified.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// Order returns the input indices of the last Allocate call's jobs
// ascending by the DAG-aware priority max(V, V′), ties in input order:
// the permutation a stable sort by JobDemand.Priority yields. The slice
// is reused by the next call.
func (a *Allocator) Order() []int {
	a.perm = resized(a.perm, len(a.order))
	for k, o := range a.order {
		a.perm[k] = o.idx
	}
	return a.perm
}

// Priorities returns the last Allocate call's priority keys, aligned with
// its input: JobDemand.Priority of each job, the key Order sorted by. The
// slice is reused by the next call.
func (a *Allocator) Priorities() []float64 { return a.prio }

// sortByPriority computes every job's virtual size and priority key
// max(V, V′) — the square root once per job, not once per comparison —
// and orders the (key, index) pairs ascending into a.order: by a full
// sort without a hint, and by insertion-sorting the hinted layout with
// one.
func (a *Allocator) sortByPriority(jobs []JobDemand, beta float64, hint []int) {
	n := len(jobs)
	a.virt, a.prio, a.order = resized(a.virt, n), resized(a.prio, n), resized(a.order, n)
	for i, j := range jobs {
		v := j.Virtual(beta)
		prio := v // JobDemand.Priority, on the cached virtual size
		if j.DownstreamVirtual > prio {
			prio = j.DownstreamVirtual
		}
		a.virt[i], a.prio[i] = v, prio
	}
	if hint == nil {
		for i, p := range a.prio {
			a.order[i] = keyed{p, i}
		}
		slices.SortFunc(a.order, ascending)
		return
	}
	if len(hint) != n {
		panic(fmt.Sprintf("core: order hint has %d entries for %d jobs", len(hint), n))
	}
	for k, i := range hint {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("core: order hint entry %d is %d, out of [0, %d)", k, i, n))
		}
		a.order[k] = keyed{a.prio[i], i}
	}
	a.Hinted++
	// n·⌈log₂ n⌉ shifts is what a comparison sort costs anyway: past it
	// the hint was poor, and the sort finishes from wherever the insertion
	// sort stopped.
	if !insertionSort(a.order, n*bits.Len(uint(n-1))) {
		a.Fallbacks++
		slices.SortFunc(a.order, ascending)
	}
	// A repeated index is laid out twice with the same key, so the sort
	// puts the two copies side by side; with every index in range and
	// none repeated, the hint was a permutation.
	for k := 1; k < n; k++ {
		if a.order[k].idx == a.order[k-1].idx {
			panic(fmt.Sprintf("core: order hint repeats %d: not a permutation of [0, %d)", a.order[k].idx, n))
		}
	}
}

// insertionSort sorts s ascending, shifting each element left past the
// larger ones before it, and reports whether it finished within budget
// shifts. When it gives up, s is still a permutation of its input.
func insertionSort(s []keyed, budget int) bool {
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && ascending(x, s[j-1]) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// selectSmallest reorders s so that its k smallest elements come first,
// in no particular order, for 0 < k < len(s). It is a quickselect with
// median-of-three pivots: the elements are distinct under ascending (the
// index breaks every tie), so the chosen set is exactly the first k of
// the sorted order. After rounds partitions it sorts the rest of the
// range instead, which bounds the worst case at a sort's.
func selectSmallest(s []keyed, k, rounds int) {
	lo, hi := 0, len(s)-1 // s[lo:hi+1] holds the k-th smallest
	for lo < hi {
		if rounds == 0 {
			slices.SortFunc(s[lo:hi+1], ascending)
			return
		}
		rounds--
		p := partition(s, lo, hi)
		switch {
		case p < k-1:
			lo = p + 1
		case p > k-1:
			hi = p - 1
		default:
			return
		}
	}
}

// partition moves the median of s[lo], s[mid] and s[hi] to its sorted
// position p in s[lo:hi+1], with the smaller elements before it and the
// larger after, and returns p.
func partition(s []keyed, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if ascending(s[mid], s[lo]) < 0 {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if ascending(s[hi], s[lo]) < 0 {
		s[hi], s[lo] = s[lo], s[hi]
	}
	if ascending(s[mid], s[hi]) < 0 {
		s[mid], s[hi] = s[hi], s[mid]
	}
	pivot, p := s[hi], lo
	for i := lo; i < hi; i++ {
		if ascending(s[i], pivot) < 0 {
			s[i], s[p] = s[p], s[i]
			p++
		}
	}
	s[p], s[hi] = s[hi], s[p]
	return p
}

// allocate runs Pseudocode 1 into a zeroed caller buffer. virt holds the
// jobs' virtual sizes and order their (priority, index) pairs ascending.
func (a *Allocator) allocate(jobs []JobDemand, virt []float64, order []keyed, slots int, alloc []int) {
	if len(jobs) == 0 || slots <= 0 {
		return
	}
	var totalV float64
	for _, v := range virt { // input order: the sum must not depend on the sort
		totalV += v
	}
	if float64(slots) < totalV {
		allocConstrained(jobs, virt, order, slots, alloc)
	} else {
		a.allocProportional(jobs, virt, order, totalV, slots, alloc)
	}
}

// allocConstrained is Guideline 2: smallest jobs first, each up to its
// virtual size. Fractional virtual sizes round up for the earliest jobs —
// a job "reaching its threshold" must include the partial slot, otherwise
// single-task jobs would starve under beta near 2.
func allocConstrained(jobs []JobDemand, virt []float64, order []keyed, slots int, alloc []int) {
	left := slots
	for _, o := range order {
		if left == 0 {
			return
		}
		i := o.idx
		want := min(jobs[i].cap(int(math.Ceil(virt[i]))), left)
		alloc[i] = want
		left -= want
	}
	// Surplus (every job at its cap): hand remaining slots to jobs below
	// MaxUsable in priority order. This only triggers when caps bind.
	for _, o := range order {
		if left == 0 {
			return
		}
		i := o.idx
		extra := jobs[i].cap(alloc[i]+left) - alloc[i]
		alloc[i] += extra
		left -= extra
	}
}

// allocProportional is Guideline 3: every job gets its virtual size, and
// the surplus is shared in proportion to virtual sizes (largest jobs
// benefit most). Integerization uses largest-remainder so the allocation
// sums exactly to min(slots, sum of caps): the left slots go one each to
// the jobs with the largest remainders, ties in input order, among those
// whose cap admits one more. Only that set matters, not its order, so a
// selection picks it instead of a sort.
func (a *Allocator) allocProportional(jobs []JobDemand, virt []float64, order []keyed, totalV float64, slots int, alloc []int) {
	if totalV == 0 {
		return
	}
	fracs := resized(a.fracs, len(jobs))[:0]
	used := 0
	for i, j := range jobs {
		share := virt[i] / totalV * float64(slots)
		whole := j.cap(int(math.Floor(share)))
		alloc[i] = whole
		used += whole
		if j.cap(whole+1) > whole {
			fracs = append(fracs, keyed{float64(whole) - share, i})
		}
	}
	a.fracs = fracs
	left := slots - used
	if left > 0 {
		if left < len(fracs) {
			selectSmallest(fracs, left, 2*bits.Len(uint(len(fracs))))
			fracs = fracs[:left]
		}
		for _, f := range fracs {
			alloc[f.idx]++
		}
		left -= len(fracs)
	}
	// Remaining surplus cascades in descending virtual size (Guideline 3
	// favors large jobs), still respecting caps.
	for k := len(order) - 1; k >= 0 && left > 0; k-- {
		i := order[k].idx
		extra := jobs[i].cap(alloc[i]+left) - alloc[i]
		alloc[i] += extra
		left -= extra
	}
}

// AllocateFair applies the epsilon-fairness projection of Section 4.3 on
// top of Allocate: every job is guaranteed floor = (1-epsilon) * S/N
// slots (capped by what it can use). epsilon = 0 is perfect fairness;
// epsilon = 1 disables the floor entirely.
func AllocateFair(jobs []JobDemand, slots int, beta, epsilon float64) []int {
	return AllocateFairInto(nil, jobs, slots, beta, epsilon)
}

// AllocateFairInto is AllocateFair with a caller-owned result buffer: dst
// is resized (reallocating only when capacity is short) and returned. Its
// working slices are a fresh Allocator's; a caller that allocates
// repeatedly keeps an Allocator instead.
func AllocateFairInto(dst []int, jobs []JobDemand, slots int, beta, epsilon float64) []int {
	return (&Allocator{alloc: dst}).Allocate(jobs, slots, beta, epsilon, nil)
}

// Allocate is AllocateFair on the allocator's buffers. The result is
// aligned with jobs and reused by the next call.
//
// hint, when not nil, is a permutation of the input indices in roughly
// ascending priority — typically the last call's Order carried over to
// this call's jobs, with new jobs at the end. It only makes the call
// cheaper: the allocation, Order and Priorities are those of a call
// without it. A hint that is not a permutation of [0, len(jobs)) panics.
func (a *Allocator) Allocate(jobs []JobDemand, slots int, beta, epsilon float64, hint []int) []int {
	if epsilon < 0 || epsilon > 1 {
		panic(fmt.Sprintf("core: epsilon %v out of [0,1]", epsilon))
	}
	n := len(jobs)
	alloc := resized(a.alloc, n)
	clear(alloc)
	a.alloc = alloc
	a.Calls++
	a.sortByPriority(jobs, beta, hint)
	if n == 0 || slots <= 0 {
		return alloc
	}
	if epsilon >= 1 {
		a.allocate(jobs, a.virt, a.order, slots, alloc)
		return alloc
	}
	floor := (1 - epsilon) * float64(slots) / float64(n)

	// Iterative projection: allocate by guidelines; any job below its
	// floor is pinned at the floor and removed; re-run on the remainder.
	// Terminates because each round pins at least one job.
	active, pos := resized(a.active, n), resized(a.pos, n)
	for i := range n {
		active[i], pos[i] = i, i
	}
	floorSlots := int(math.Floor(floor))
	slotsLeft := slots
	for len(active) > 0 {
		// The round's subproblem, and its priority order: the call's one
		// ordering filtered to the unpinned jobs, each index remapped to its
		// position in the subproblem. active ascends, so the remap is
		// monotone and the (key, index) order is unchanged by it.
		m := len(active)
		sub, subVirt, subOrder := resized(a.sub, m), resized(a.subVirt, m), resized(a.subOrder, m)[:0]
		for k, i := range active {
			sub[k], subVirt[k] = jobs[i], a.virt[i]
		}
		for _, o := range a.order { // m of them pass the filter
			if k := pos[o.idx]; k >= 0 {
				subOrder = append(subOrder, keyed{o.key, k})
			}
		}
		a.sub, a.subVirt, a.subOrder = sub, subVirt, subOrder
		subAlloc := resized(a.subAlloc, m)
		clear(subAlloc)
		a.subAlloc = subAlloc
		a.allocate(sub, subVirt, subOrder, slotsLeft, subAlloc)
		// Pin every job below its guarantee at the guarantee and keep the
		// rest, renumbered, for the next round. The floors never
		// oversubscribe the cluster: each of at most N guarantees is at
		// most ⌊(1−ε)·S/N⌋ <= S/N, so slotsLeft stays >= 0.
		kept := active[:0]
		for k, i := range active {
			if g := jobs[i].cap(floorSlots); subAlloc[k] < g {
				alloc[i] = g
				slotsLeft -= g
				pos[i] = -1
			} else {
				pos[i] = len(kept)
				kept = append(kept, i)
			}
		}
		if len(kept) == m { // nothing pinned: this round's allocation stands
			for k, i := range kept {
				alloc[i] = subAlloc[k]
			}
			break
		}
		active = kept
	}
	a.active, a.pos = active, pos
	return alloc
}

// LocalityWindow returns how many of the smallest jobs may be bypassed in
// favor of data-local work under a k-percent relaxation (Section 4.4):
// for n active jobs, window = max(1, ceil(k/100 * n)). k <= 0 returns 1
// (strict guideline order).
func LocalityWindow(n int, kPercent float64) int {
	if n <= 0 {
		return 0
	}
	if kPercent <= 0 {
		return 1
	}
	w := int(math.Ceil(kPercent / 100 * float64(n)))
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}
