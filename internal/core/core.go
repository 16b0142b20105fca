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
// jobs in guideline order, keeping the allocation work-conserving.
func Allocate(jobs []JobDemand, slots int, beta float64) []int {
	alloc := make([]int, len(jobs))
	var ws workspace
	ws.allocate(jobs, virtuals(nil, jobs, beta), slots, alloc)
	return alloc
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

// workspace holds the sort buffers of Pseudocode 1, so that the
// projection rounds of AllocateFairInto reuse them instead of allocating
// a pair per round.
type workspace struct {
	order []keyed // the (sub)problem's jobs ascending by priority
	fracs []keyed // largest-remainder order of the proportional regime, keyed by −fraction
}

// virtuals appends every job's virtual size to dst: the square root is
// taken once per job and allocation, not once per comparison.
func virtuals(dst []float64, jobs []JobDemand, beta float64) []float64 {
	for _, j := range jobs {
		dst = append(dst, j.Virtual(beta))
	}
	return dst
}

// allocate runs Pseudocode 1 into a zeroed caller buffer. virt holds the
// jobs' virtual sizes (virtuals).
func (ws *workspace) allocate(jobs []JobDemand, virt []float64, slots int, alloc []int) {
	if len(jobs) == 0 || slots <= 0 {
		return
	}
	ws.sortByPriority(jobs, virt)
	var totalV float64
	for _, v := range virt {
		totalV += v
	}
	if float64(slots) < totalV {
		ws.allocConstrained(jobs, virt, slots, alloc)
	} else {
		ws.allocProportional(jobs, virt, totalV, slots, alloc)
	}
}

// sortByPriority fills ws.order with the job indices ascending by the
// DAG-aware priority key max(V, V'), tie-broken by input order for
// determinism.
func (ws *workspace) sortByPriority(jobs []JobDemand, virt []float64) {
	order := ws.order[:0]
	if cap(order) < len(jobs) {
		order = make([]keyed, 0, len(jobs))
	}
	for i, j := range jobs {
		prio := virt[i] // JobDemand.Priority, on the cached virtual size
		if j.DownstreamVirtual > prio {
			prio = j.DownstreamVirtual
		}
		order = append(order, keyed{prio, i})
	}
	slices.SortFunc(order, ascending)
	ws.order = order
}

// allocConstrained is Guideline 2: smallest jobs first, each up to its
// virtual size. Fractional virtual sizes round up for the earliest jobs —
// a job "reaching its threshold" must include the partial slot, otherwise
// single-task jobs would starve under beta near 2.
func (ws *workspace) allocConstrained(jobs []JobDemand, virt []float64, slots int, alloc []int) {
	left := slots
	for _, o := range ws.order {
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
	for _, o := range ws.order {
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
// sums exactly to min(slots, sum of caps).
func (ws *workspace) allocProportional(jobs []JobDemand, virt []float64, totalV float64, slots int, alloc []int) {
	if totalV == 0 {
		return
	}
	fracs := ws.fracs[:0]
	if cap(fracs) < len(jobs) {
		fracs = make([]keyed, 0, len(jobs))
	}
	used := 0
	for i, j := range jobs {
		share := virt[i] / totalV * float64(slots)
		whole := j.cap(int(math.Floor(share)))
		alloc[i] = whole
		used += whole
		fracs = append(fracs, keyed{float64(whole) - share, i})
	}
	slices.SortFunc(fracs, ascending) // largest remainder first, ties in input order
	ws.fracs = fracs
	left := slots - used
	for _, f := range fracs {
		if left == 0 {
			break
		}
		if jobs[f.idx].cap(alloc[f.idx]+1) > alloc[f.idx] {
			alloc[f.idx]++
			left--
		}
	}
	// Remaining surplus cascades in descending virtual size (Guideline 3
	// favors large jobs), still respecting caps.
	for k := len(ws.order) - 1; k >= 0 && left > 0; k-- {
		i := ws.order[k].idx
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

// AllocateFairInto is AllocateFair with a caller-owned result buffer:
// dst is resized (reallocating only when capacity is short) and returned,
// so a scheduler refreshing its allocation every arrival does not allocate
// a fresh target vector each time. The working slices are allocated once
// per call and shared by the projection rounds.
func AllocateFairInto(dst []int, jobs []JobDemand, slots int, beta, epsilon float64) []int {
	if epsilon < 0 || epsilon > 1 {
		panic(fmt.Sprintf("core: epsilon %v out of [0,1]", epsilon))
	}
	n := len(jobs)
	alloc := dst
	if cap(alloc) < n {
		alloc = make([]int, n)
	} else {
		alloc = alloc[:n]
		clear(alloc)
	}
	if n == 0 || slots <= 0 {
		return alloc
	}
	var ws workspace
	virt := virtuals(make([]float64, 0, n), jobs, beta)
	if epsilon >= 1 {
		ws.allocate(jobs, virt, slots, alloc)
		return alloc
	}
	floor := (1 - epsilon) * float64(slots) / float64(n)

	// Iterative projection: allocate by guidelines; any job below its
	// floor is pinned at the floor and removed; re-run on the remainder.
	// Terminates because each round pins at least one job.
	// The rounds share one set of working slices: the jobs still unpinned
	// (indices into jobs), the subproblem over them, the ones pinned this
	// round.
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	sub := make([]JobDemand, 0, n)
	subVirt := make([]float64, 0, n)
	subAlloc := make([]int, n)
	pinned := make([]int, 0, n)
	slotsLeft := slots
	for {
		sub, subVirt = sub[:0], subVirt[:0]
		for _, i := range active {
			sub = append(sub, jobs[i])
			subVirt = append(subVirt, virt[i])
		}
		subAlloc = subAlloc[:len(active)]
		clear(subAlloc)
		ws.allocate(sub, subVirt, slotsLeft, subAlloc)
		pinned = pinned[:0]
		for k, i := range active {
			guarantee := jobs[i].cap(int(math.Floor(floor)))
			if subAlloc[k] < guarantee {
				alloc[i] = guarantee
				slotsLeft -= guarantee
				pinned = append(pinned, k)
			}
		}
		if len(pinned) == 0 {
			for k, i := range active {
				alloc[i] = subAlloc[k]
			}
			return alloc
		}
		if slotsLeft < 0 {
			// Floors oversubscribe the cluster (possible when epsilon is
			// small and N is large relative to S): scale the pinned
			// guarantees down proportionally, drop everything else.
			deficit := -slotsLeft
			for _, k := range pinned {
				i := active[k]
				take := min(alloc[i], deficit)
				alloc[i] -= take
				deficit -= take
				if deficit == 0 {
					break
				}
			}
			for k, i := range active {
				if !slices.Contains(pinned, k) {
					alloc[i] = 0
				}
			}
			return alloc
		}
		// Remove pinned jobs from the active set (descending to keep
		// indices valid).
		for d := len(pinned) - 1; d >= 0; d-- {
			k := pinned[d]
			active = append(active[:k], active[k+1:]...)
		}
		if len(active) == 0 {
			return alloc
		}
	}
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
