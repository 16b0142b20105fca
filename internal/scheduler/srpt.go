package scheduler

import (
	"sort"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// SRPTEngine is the paper's aggressive centralized baseline (Section 7.4):
// Shortest Remaining Processing Time ordering over jobs (by remaining task
// count), with best-effort speculation — speculative copies are treated
// like any other task and wait for a free slot behind the SRPT order,
// exactly the coupling failure Figure 1a illustrates.
type SRPTEngine struct {
	*Base
	sorter srptSorter
}

// NewSRPT builds a centralized SRPT engine on the executor.
func NewSRPT(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *SRPTEngine {
	s := &SRPTEngine{}
	s.Base = newBase(eng, exec, cfg)
	s.Base.dispatch = s.dispatch
	return s
}

// Name identifies the engine in experiment reports.
func (s *SRPTEngine) Name() string { return "SRPT" }

// srptSorter orders active jobs ascending by total remaining tasks,
// tie-broken by job ID, reusing its buffers across dispatch passes so a
// pass allocates nothing. The remaining-task key is precomputed once per
// load — the old per-comparison RemainingTasksTotal call rescanned the
// job's phases O(n log n) times per sort.
type srptSorter struct {
	jobs []*jobState
	rem  []int
}

func (o *srptSorter) Len() int { return len(o.jobs) }

func (o *srptSorter) Less(a, b int) bool {
	if o.rem[a] != o.rem[b] {
		return o.rem[a] < o.rem[b]
	}
	return o.jobs[a].Job.ID < o.jobs[b].Job.ID
}

func (o *srptSorter) Swap(a, b int) {
	o.jobs[a], o.jobs[b] = o.jobs[b], o.jobs[a]
	o.rem[a], o.rem[b] = o.rem[b], o.rem[a]
}

// load captures the active set and sorts it into SRPT order. Less is a
// total order (job IDs are unique), so an unstable sort yields the same
// order a stable one would, without the stable sort's extra passes.
func (o *srptSorter) load(active []*jobState) []*jobState {
	o.jobs = append(o.jobs[:0], active...)
	if cap(o.rem) < len(active) {
		o.rem = make([]int, 0, 2*len(active)+8)
	}
	o.rem = o.rem[:len(active)]
	for i, s := range active {
		o.rem[i] = s.Job.RemainingTasksTotal()
	}
	sort.Sort(o)
	return o.jobs
}

func (s *SRPTEngine) dispatch() {
	// With no fresh task or want anywhere every job would be passed over:
	// return before the sort.
	if s.demand == 0 {
		return
	}
	// Placements do not change remaining-task counts, so one ordering per
	// dispatch round suffices.
	order := s.sorter.load(s.active)
	for s.Exec.Machines.AnyFree() {
		placed := false
		for _, st := range order {
			if st.demand() == 0 {
				continue
			}
			if s.placeOne(st) {
				placed = true
				break
			}
		}
		if !placed {
			return
		}
	}
}
