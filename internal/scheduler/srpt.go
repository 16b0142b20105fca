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

// Name implements Engine.
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
	return o.jobs[a].job.ID < o.jobs[b].job.ID
}

func (o *srptSorter) Swap(a, b int) {
	o.jobs[a], o.jobs[b] = o.jobs[b], o.jobs[a]
	o.rem[a], o.rem[b] = o.rem[b], o.rem[a]
}

// load captures the active set and stable-sorts it into SRPT order.
func (o *srptSorter) load(active []*jobState) []*jobState {
	o.jobs = append(o.jobs[:0], active...)
	if cap(o.rem) < len(active) {
		o.rem = make([]int, 0, 2*len(active)+8)
	}
	o.rem = o.rem[:len(active)]
	for i, s := range active {
		o.rem[i] = s.job.RemainingTasksTotal()
	}
	sort.Stable(o)
	return o.jobs
}

func (s *SRPTEngine) dispatch() {
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

// FairEngine is the equal-share baseline (Section 2.1): every active job
// is entitled to S/N slots; entitlements a job cannot use flow to others
// (work-conserving water-filling). Speculation is best-effort within the
// job's share.
type FairEngine struct {
	*Base
	totalSlots int
	caps       []int
	targets    []int
}

// NewFair builds a centralized fair-share engine on the executor.
func NewFair(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *FairEngine {
	f := &FairEngine{totalSlots: exec.Machines.TotalSlots()}
	f.Base = newBase(eng, exec, cfg)
	f.Base.dispatch = f.dispatch
	return f
}

// Name implements Engine.
func (f *FairEngine) Name() string { return "Fair" }

// waterfill distributes slots among jobs with the given usable caps so
// that shares are as equal as possible without exceeding any cap.
func waterfill(caps []int, slots int) []int {
	return waterfillInto(nil, caps, slots)
}

// waterfillInto is waterfill with a caller-owned result buffer.
func waterfillInto(dst, caps []int, slots int) []int {
	out := dst
	if cap(out) < len(caps) {
		out = make([]int, len(caps))
	} else {
		out = out[:len(caps)]
		for i := range out {
			out[i] = 0
		}
	}
	remainingJobs := 0
	for _, c := range caps {
		if c > 0 {
			remainingJobs++
		}
	}
	left := slots
	for left > 0 && remainingJobs > 0 {
		share := left / remainingJobs
		if share == 0 {
			share = 1
		}
		progress := false
		for i, c := range caps {
			if left == 0 {
				break
			}
			if out[i] >= c {
				continue
			}
			give := share
			if out[i]+give > c {
				give = c - out[i]
			}
			if give > left {
				give = left
			}
			if give > 0 {
				out[i] += give
				left -= give
				progress = true
			}
			if out[i] >= c {
				remainingJobs--
			}
		}
		if !progress {
			break
		}
	}
	return out
}

func (f *FairEngine) dispatch() {
	if len(f.active) == 0 {
		return
	}
	if cap(f.caps) < len(f.active) {
		f.caps = make([]int, 0, 2*len(f.active)+8)
	}
	f.caps = f.caps[:len(f.active)]
	for i, st := range f.active {
		f.caps[i] = st.usage + st.demand()
	}
	f.targets = waterfillInto(f.targets, f.caps, f.totalSlots)
	for f.Exec.Machines.AnyFree() {
		// Serve the job furthest below its target first (max deficit).
		pick, bestDeficit := -1, 0
		for i, st := range f.active {
			if st.demand() == 0 {
				continue
			}
			d := f.targets[i] - st.usage
			if d > bestDeficit {
				bestDeficit = d
				pick = i
			}
		}
		if pick < 0 {
			return
		}
		if !f.placeOne(f.active[pick]) {
			if f.active[pick].demand() == 0 {
				continue
			}
			return
		}
	}
}
