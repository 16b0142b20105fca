// Frozen pre-overhaul dispatch implementations.
//
// These reproduce, line for line, the dispatch paths as they existed
// before the scheduler hot-path overhaul (see DESIGN.md section 6):
// per-pass index sorts, map-keyed targets and priorities, and per-call
// phase rescans. They serve one purpose, the identity oracle:
// dispatch_diff_test.go and lifecycle_test.go prove the optimized paths
// produce the exact same placement sequence (same tie-breaks, same RNG
// consumption). They are test code: referenceOf puts them on an
// engine the ordinary constructor built, so the binary that ships
// carries neither them nor an option to select them. The frozen
// BENCH_PR2…PR10.json files record what the overhaul bought over this
// code (2.2–3.2x ns, 30–220x allocs per decision).
//
// Do not "improve" this file: its value is being a faithful snapshot of
// the old implementation with identical behavior.
package scheduler

import (
	"slices"
	"sort"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/core"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// referenceOf wraps an engine constructor so that what it builds is the
// frozen model: the engine's dispatch passes run the reference
// implementation, and its speculation questions go to the monitor's
// scans over the running set (scanSpec), never the victim index — which
// is what makes a comparison against it index versus scan. The running
// set is rebuilt for each scan from the job's tasks (runningOf).
func referenceOf(mk func(*simulator.Engine, *cluster.Executor) Engine) func(*simulator.Engine, *cluster.Executor) Engine {
	return func(eng *simulator.Engine, exec *cluster.Executor) Engine {
		e := mk(eng, exec)
		r := &scanSpec{Base: baseOf(e)}
		exec.OnTaskDone = r.onTaskDone
		r.Base.tickerOn = true // the chassis' ticker never arms; scanSpec runs its own
		switch v := e.(type) {
		case *HopperEngine:
			r.dispatch = (&hopperReference{HopperEngine: v, spec: r}).dispatch
		case *SRPTEngine:
			r.dispatch = func() { v.dispatchReference(r) }
		case *BudgetedEngine:
			r.dispatch = v.dispatchReference
		}
		return &refEngine{Engine: e, spec: r}
	}
}

// refEngine is an engine whose speculation ticks come from scanSpec: it
// arms the ticker where the chassis' Arrive would, as its last step.
type refEngine struct {
	Engine
	spec *scanSpec
}

func (r *refEngine) Arrive(j *cluster.Job) {
	r.Engine.Arrive(j)
	r.spec.ensureTicker()
}

// scanSpec is the chassis' speculation as it was before the victim index:
// the periodic scan, the scan on each completion and the capacity-driven
// victim search, each asked of the monitor's linear scans over the job's
// running set. Every method is its Base namesake with the index query
// swapped for the scan it must equal.
type scanSpec struct {
	*Base
	tickerOn bool
	running  []*cluster.Task
}

// runningOf is the job's running set as the chassis kept it before the
// book replaced it with a count: the tasks with a live copy, in hand-out
// order (Task.VictimPos). The result is reused by the next call.
func (r *scanSpec) runningOf(s *jobState) []*cluster.Task {
	r.running = r.running[:0]
	for _, p := range s.Job.Phases {
		for _, t := range p.Tasks {
			if t.State == cluster.TaskRunning {
				r.running = append(r.running, t)
			}
		}
	}
	slices.SortFunc(r.running, func(a, b *cluster.Task) int { return a.VictimPos - b.VictimPos })
	return r.running
}

func (r *scanSpec) ensureTicker() {
	if r.tickerOn || r.Cfg.DisableSpec {
		return
	}
	r.tickerOn = true
	var tick func()
	tick = func() {
		if len(r.active) == 0 {
			r.tickerOn = false
			return
		}
		r.scanAll()
		r.Eng.PostAfter(r.Cfg.CheckInterval, tick)
	}
	r.Eng.PostAfter(r.Cfg.CheckInterval, tick)
}

func (r *scanSpec) scanAll() {
	added := false
	for _, s := range r.active {
		if r.scanJob(s) {
			added = true
		}
	}
	if added {
		r.requestDispatch()
	}
}

func (r *scanSpec) scanJob(s *jobState) bool {
	if r.Cfg.DisableSpec {
		return false
	}
	added := false
	r.wantScratch = s.Mon.CandidatesInto(r.Eng.Now(), r.runningOf(s), -1, r.wantScratch)
	for _, t := range r.wantScratch {
		if t.RunningCopies() < r.Cfg.Spec.MaxCopies && s.AddWant(t) {
			added = true
		}
	}
	return added
}

func (r *scanSpec) onTaskDone(t *cluster.Task, winner *cluster.Copy) {
	s := r.taskDone(t, winner)
	r.scanJob(s)
	r.requestDispatch()
}

func (r *scanSpec) placeOne(s *jobState) bool {
	if r.placeFresh(s) {
		return true
	}
	if r.placeSpec(s) {
		return true
	}
	if !r.capacitySpec || r.Cfg.DisableSpec {
		return false
	}
	v := s.Mon.BestVictim(r.Eng.Now(), r.runningOf(s), r.Cfg.Spec.MaxCopies)
	if v == nil {
		return false
	}
	if c := r.Exec.Place(v, true); c == nil {
		return false
	}
	r.copyPlaced(s, v, true)
	return true
}

// refFreshDemand is the pre-overhaul freshDemand: a phase rescan (with
// the old per-call slice allocation) instead of the maintained counter.
func refFreshDemand(s *jobState) int {
	n := 0
	for _, p := range s.Job.RunnablePhasesScan() {
		n += p.UnscheduledTasks()
	}
	return n
}

// refDemand is the pre-overhaul demand(): rescanned fresh count plus
// pending wants.
func refDemand(s *jobState) int { return refFreshDemand(s) + s.Wants() }

// refHasLocalFresh is the pre-overhaul hasLocalFresh, phase rescan
// included.
func (b *Base) refHasLocalFresh(s *jobState) bool {
	for _, p := range s.Job.RunnablePhasesScan() {
		t := p.NextUnscheduled()
		if t == nil {
			continue
		}
		if len(t.Replicas) == 0 {
			return true // no preference: every machine is "local"
		}
		for _, m := range t.Replicas {
			if b.Exec.Machines.Get(m).Free > 0 {
				return true
			}
		}
	}
	return false
}

// hopperReference is the pre-overhaul Hopper dispatch state: targets and
// priorities in maps keyed by job ID. The old refresh rebuilt them; here
// every pass copies them out of the dense per-job fields the engine's
// refresh wrote (an active job's target and prio change nowhere else), so
// the model reads the same values without a hook in refresh, and never
// looks at the cached service order it is the oracle for.
type hopperReference struct {
	*HopperEngine
	spec       *scanSpec
	refTargets map[cluster.JobID]int
	refPrios   map[cluster.JobID]float64
}

// dispatch is the pre-overhaul HopperEngine.dispatch: a fresh index
// slice and a stable sort over the priority map on every pass.
func (h *hopperReference) dispatch() {
	if !h.Exec.Machines.AnyFree() || len(h.active) == 0 {
		return
	}
	h.refTargets = make(map[cluster.JobID]int, len(h.active))
	h.refPrios = make(map[cluster.JobID]float64, len(h.active))
	for _, s := range h.active {
		h.refTargets[s.Job.ID] = s.target
		h.refPrios[s.Job.ID] = s.prio
	}

	order := make([]int, len(h.active))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return h.refPrios[h.active[order[a]].Job.ID] < h.refPrios[h.active[order[b]].Job.ID]
	})

	budget := h.Exec.Machines.FreeSlots()
	window := core.LocalityWindow(len(order), h.Cfg.LocalityK)
	if window > 32 {
		window = 32
	}
	for i := 0; i < len(order) && budget > 0; i++ {
		if window > 1 {
			for k := i; k < i+window && k < len(order); k++ {
				if h.refHasLocalFresh(h.active[order[k]]) {
					order[i], order[k] = order[k], order[i]
					break
				}
			}
		}
		s := h.active[order[i]]
		quota := h.refTargets[s.Job.ID] - s.Occupied
		if quota <= 0 {
			continue
		}
		if quota > budget {
			quota = budget
		}
		filled := 0
		for filled < quota {
			if !h.spec.placeOne(s) {
				break
			}
			filled++
		}
		if filled == quota {
			budget -= quota
			continue
		}
		potential := 0
		for _, t := range h.spec.runningOf(s) {
			if t.RunningCopies() < h.Cfg.Spec.MaxCopies {
				potential++
				if filled+potential >= quota {
					break
				}
			}
		}
		hold := quota - filled
		if potential < hold {
			hold = potential
		}
		budget -= filled + hold
	}
}

// refSRPTOrder is the pre-overhaul srptOrder: fresh index slice, stable
// sort with RemainingTasksTotal recomputed inside the comparator.
func refSRPTOrder(active []*jobState) []int {
	order := make([]int, len(active))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := active[order[a]].Job.RemainingTasksTotal(), active[order[b]].Job.RemainingTasksTotal()
		if ra != rb {
			return ra < rb
		}
		return active[order[a]].Job.ID < active[order[b]].Job.ID
	})
	return order
}

// dispatchReference is the pre-overhaul SRPTEngine.dispatch.
func (s *SRPTEngine) dispatchReference(r *scanSpec) {
	order := refSRPTOrder(s.active)
	for s.Exec.Machines.AnyFree() {
		placed := false
		for _, i := range order {
			st := s.active[i]
			if refDemand(st) == 0 {
				continue
			}
			if r.placeOne(st) {
				placed = true
				break
			}
		}
		if !placed {
			return
		}
	}
}

// dispatchReference is the pre-overhaul BudgetedEngine.dispatch,
// re-sorting the SRPT order on every placement iteration.
func (e *BudgetedEngine) dispatchReference() {
	for e.Exec.Machines.AnyFree() {
		placed := false
		order := refSRPTOrder(e.active)

		if e.specUsage < e.budget {
			for _, i := range order {
				st := e.active[i]
				if st.Wants() == 0 {
					continue
				}
				if e.placeSpec(st) {
					placed = true
					break
				}
			}
		}
		if e.Exec.Machines.AnyFree() && e.freshUsage < e.totalSlots-e.budget {
			for _, i := range order {
				st := e.active[i]
				if refFreshDemand(st) == 0 {
					continue
				}
				if e.placeFresh(st) {
					placed = true
					break
				}
			}
		}
		if !placed {
			return
		}
	}
}
