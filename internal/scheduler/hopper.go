package scheduler

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/core"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// HopperEngine is the centralized Hopper scheduler (Section 4): it
// allocates slots to jobs by virtual size under Guidelines 2/3 with the
// epsilon-fairness projection, orders service by the DAG-aware priority
// max(V, V'), relaxes that order within a k% window for data locality,
// and reserves allocated-but-unused slots for their job's upcoming
// speculation needs (the anticipation behavior of Figure 2, where a slot
// idles briefly rather than being lent to another job).
type HopperEngine struct {
	*Base
	totalSlots int

	// The allocation cache is refreshed on arrivals and on a short timer
	// rather than on every task completion: recomputing the guideline
	// allocation orders the active jobs by priority (once per refresh: the
	// allocator's projection rounds and the service order share that
	// order) and completions arrive at cluster scale. Staleness is bounded
	// by half the speculation check interval. Per-job targets and
	// priorities live on jobState (dense by active slot, no map); order is
	// the active set ascending by priority, taken from the allocator and
	// pruned on job completion — a dispatch pass just copies it into a
	// scratch slice (locality-window swaps are pass-local) instead of
	// re-sorting. Between refreshes priorities barely move, so the next
	// refresh hands order back to the allocator as a hint, which it
	// repairs instead of sorting from scratch. The allocator and the
	// demand and hint buffers keep their memory between refreshes.
	order     []*jobState
	passOrder []*jobState
	demands   []core.JobDemand
	hint      []int
	allocator core.Allocator
	refreshOn bool
	// refreshes is the refresher's engine lane (a constant period).
	refreshes *simulator.Lane
}

// NewHopper builds a centralized Hopper engine on the executor.
func NewHopper(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *HopperEngine {
	h := &HopperEngine{totalSlots: exec.Machines.TotalSlots(), refreshes: eng.NewLane()}
	h.Base = newBase(eng, exec, cfg)
	h.Base.capacitySpec = true
	h.Base.dispatch = h.dispatch
	// Dispatch passes are O(active jobs); coalesce completions within a
	// small window (2% of the check interval) into one pass.
	h.Base.dispatchDelay = h.Cfg.CheckInterval / 50
	h.Base.onArrive = func() { h.refresh(); h.ensureRefresher() }
	h.Base.onJobRemoved = h.jobRemoved
	return h
}

// refreshPeriod bounds target staleness.
func (h *HopperEngine) refreshPeriod() float64 { return h.Cfg.CheckInterval / 2 }

// ensureRefresher keeps a periodic target refresh running while jobs are
// active.
func (h *HopperEngine) ensureRefresher() {
	if h.refreshOn {
		return
	}
	h.refreshOn = true
	var tick func()
	tick = func() {
		if len(h.active) == 0 {
			h.refreshOn = false
			return
		}
		h.refresh()
		h.Base.dispatch()
		h.refreshes.PostAfter(h.refreshPeriod(), tick)
	}
	h.refreshes.PostAfter(h.refreshPeriod(), tick)
}

// refresh recomputes the guideline allocation for the current active set
// into the per-job caches and rebuilds the sorted service order.
func (h *HopperEngine) refresh() {
	beta := h.Book.Beta.Estimate()
	n := len(h.active)
	// The refresh's buffers grow together, ahead of the active set, so a
	// warm refresh allocates nothing; order is regrown below, once the
	// hint has read it.
	if cap(h.demands) < n {
		h.demands = make([]core.JobDemand, 0, 2*n+8)
		h.hint = make([]int, 0, cap(h.demands))
	}
	demands, hint := h.demands[:n], h.hint[:n]
	for i, s := range h.active {
		s.activeIdx = i
		demands[i], _ = h.Book.Demand(s.Job)
		demands[i].MaxUsable = demands[i].Remaining * h.Cfg.Spec.MaxCopies
	}
	// The hint is the last refresh's order for the survivors, then the
	// jobs that arrived since. Arrivals append to the active set and
	// removals keep its order, so those are exactly its tail; the
	// allocator panics on a hint that is not a permutation.
	for k, s := range h.order {
		hint[k] = s.activeIdx
	}
	for i := len(h.order); i < n; i++ {
		hint[i] = i
	}
	h.demands, h.hint = demands, hint
	targets := h.allocator.Allocate(demands, h.totalSlots, beta, h.Cfg.Spec.Epsilon, hint)
	prios := h.allocator.Priorities()
	for i, s := range h.active {
		s.target = targets[i]
		s.prio = prios[i]
	}
	// The allocator's order is ascending by priority with the active
	// (arrival) order as tie-break — the exact permutation a stable sort
	// by priority produces. Job completions between refreshes prune the
	// list in jobRemoved, which preserves this order for the survivors (a
	// stable sort of a subset equals the subset of the stable sort).
	if cap(h.order) < n {
		h.order = make([]*jobState, 0, cap(h.demands))
	}
	h.order = h.order[:0]
	for _, i := range h.allocator.Order() {
		h.order = append(h.order, h.active[i])
	}
}

// jobRemoved prunes the finished job from the cached service order.
func (h *HopperEngine) jobRemoved(s *jobState) {
	for i, o := range h.order {
		if o == s {
			h.order = append(h.order[:i], h.order[i+1:]...)
			return
		}
	}
}

// Name identifies the engine in experiment reports.
func (h *HopperEngine) Name() string { return "Hopper" }

func (h *HopperEngine) dispatch() {
	if !h.Exec.Machines.AnyFree() || len(h.active) == 0 {
		return
	}

	// Serve jobs in ascending priority using the cached order. The copy
	// into passOrder keeps locality-window swaps local to this pass.
	// Placements do not change the remaining-task counts driving the
	// targets; completions and arrivals do, and those trigger or await a
	// refresh within CheckInterval/2.
	order := append(h.passOrder[:0], h.order...)
	h.passOrder = order

	// Budgeted single pass with reservation semantics (the anticipation
	// of Figure 2): each job's unfilled quota stays *held* for that job —
	// a small job below its virtual size keeps its headroom slots idle
	// for the straggler about to be detected rather than lending them to
	// larger jobs, which is precisely what best-effort baselines cannot
	// do. The locality window may promote a job from the smallest k%
	// ahead of the strict order (lookahead bounded for cost).
	budget := h.Exec.Machines.FreeSlots()
	window := core.LocalityWindow(len(order), h.Cfg.LocalityK)
	if window > 32 {
		window = 32
	}
	// Every job in order[i:cursor] has been asked hasLocalFresh in this
	// pass and said no. Within a pass free slots only fall and an unserved
	// job's own tasks do not change, so a no stays a no, and the scan
	// resumes at the cursor: O(n + window) questions per pass, not
	// O(n·window).
	cursor := 0
	for i := 0; i < len(order) && budget > 0; i++ {
		// Locality relaxation: within the lookahead window starting at i,
		// promote the first job with a local fresh task.
		if window > 1 {
			end := min(i+window, len(order))
			k := max(i, cursor)
			for ; k < end; k++ {
				if h.hasLocalFresh(order[k]) {
					// The job displaced to k was a no too: at i it was
					// either below the cursor or asked just now.
					order[i], order[k] = order[k], order[i]
					break
				}
			}
			cursor = min(k+1, end)
		}
		s := order[i]
		quota := s.target - s.Occupied
		if quota <= 0 {
			continue
		}
		if quota > budget {
			quota = budget
		}
		filled := 0
		for filled < quota {
			if !h.placeOne(s) {
				break
			}
			filled++
		}
		if filled == quota {
			budget -= quota
			continue
		}
		// Unfilled quota stays reserved for this job — but only as much
		// as the job could actually use once a straggler ripens: one slot
		// per running task still below the copy cap. Holding more would
		// idle capacity no speculation can ever claim.
		hold := min(quota-filled, s.belowCap())
		budget -= filled + hold
	}
}
