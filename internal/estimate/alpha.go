package estimate

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/core"
	"github.com/hopper-sim/hopper/internal/stats"
)

// AlphaEstimator predicts the DAG communication weighting alpha of
// Section 4.2: the ratio of remaining downstream network-transfer work to
// remaining work in the current phase(s).
//
// Intermediate data sizes are not known up front (Section 6.3); the paper
// predicts them from past runs of recurring jobs and reports 92% average
// accuracy. This estimator mirrors that: each completed job trains a
// per-(family, phase) exponentially weighted average of transfer work;
// running jobs of the same family use the learned value. Jobs with no
// history fall back to the true value (counted, so experiments can report
// how often the oracle was needed).
type AlphaEstimator struct {
	families map[string][]float64 // family -> per-phase EWMA of TransferWork
	counts   map[string]int

	// Err tracks relative estimation error against ground truth.
	Err stats.Welford
	// OracleFallbacks counts estimates that had to use the true value.
	OracleFallbacks int
	// Estimates counts all Evaluate calls on multi-phase jobs.
	Estimates int
}

// NewAlphaEstimator returns an empty estimator.
func NewAlphaEstimator() *AlphaEstimator {
	return &AlphaEstimator{
		families: make(map[string][]float64),
		counts:   make(map[string]int),
	}
}

const alphaEWMA = 0.5 // weight of the newest observation

// JobCompleted learns the job's realized transfer sizes for its family.
func (a *AlphaEstimator) JobCompleted(j *cluster.Job) {
	if j.Name == "" || len(j.Phases) < 2 {
		return
	}
	hist := a.families[j.Name]
	if len(hist) < len(j.Phases) {
		grown := make([]float64, len(j.Phases))
		copy(grown, hist)
		hist = grown
	}
	first := a.counts[j.Name] == 0
	for i, p := range j.Phases {
		if first {
			hist[i] = p.TransferWork
		} else {
			hist[i] = alphaEWMA*p.TransferWork + (1-alphaEWMA)*hist[i]
		}
	}
	a.families[j.Name] = hist
	a.counts[j.Name]++
}

// estTransfer predicts phase q's input transfer work from its job's
// family history, nil when the family has none: JobCompleted creates a
// family's entry with its first count, so families and counts agree.
func (a *AlphaEstimator) estTransfer(hist []float64, q *cluster.Phase) float64 {
	if q.Index < len(hist) {
		est := hist[q.Index]
		if truth := q.TransferWork; truth > 0 {
			a.Err.Add(relErr(est, truth))
		}
		return est
	}
	a.OracleFallbacks++
	return q.TransferWork
}

func relErr(est, truth float64) float64 {
	d := est - truth
	if d < 0 {
		d = -d
	}
	return d / truth
}

// Evaluate returns (alpha, downstreamVirtual) for a running job.
// alpha is clamped to [0.1, 10] so a wildly mispredicted transfer cannot
// starve or flood a job; downstreamVirtual is V'_i(t) in current-phase
// task-slot units, used in the max(V, V') priority.
func (a *AlphaEstimator) Evaluate(j *cluster.Job, beta float64) (alpha, downstreamVirtual float64) {
	runnable := j.RunnablePhases()
	if len(j.Phases) < 2 || len(runnable) == 0 {
		return 1, 0
	}
	a.Estimates++

	// dependents[i] lists phases that consume phase i's output.
	// Remaining work is counted in baseline-speed work units (task counts
	// times the phase's mean service time at speed 1), so the estimate is
	// speed-normalized by construction: which machine class a copy landed
	// on changes its wall-clock, never the work it represents.
	var remUp, remDown, meanDur float64
	// The family's history is looked up once, at the first downstream
	// phase: a call that meets none (the job's last stage) pays nothing.
	var hist []float64
	looked := false
	for _, p := range runnable {
		remUp += float64(p.RemainingTasks()) * p.MeanTaskDuration
		meanDur += p.MeanTaskDuration
		fracLeft := float64(p.RemainingTasks()) / float64(len(p.Tasks))
		for _, q := range j.Phases {
			if q.Done() || q.State == cluster.PhaseRunnable {
				continue
			}
			for _, d := range q.Deps {
				if d == p.Index {
					if !looked {
						hist, looked = a.families[j.Name], true
					}
					remDown += a.estTransfer(hist, q) * fracLeft
					break
				}
			}
		}
	}
	meanDur /= float64(len(runnable))
	if remUp <= 0 || meanDur <= 0 {
		return 1, 0
	}
	alpha = remDown / remUp
	if alpha < 0.1 {
		alpha = 0.1
	} else if alpha > 10 {
		alpha = 10
	}
	// V': remaining communication expressed as virtual slot-tasks.
	downstreamVirtual = core.VirtualSize(int(remDown/meanDur+0.5), beta, 1)
	return alpha, downstreamVirtual
}

// String summarizes learning state for debug output.
func (a *AlphaEstimator) String() string {
	acc := 1 - a.Err.Mean()
	return fmt.Sprintf("alpha estimator: %d families, %d estimates, %d oracle fallbacks, accuracy %.2f",
		len(a.families), a.Estimates, a.OracleFallbacks, acc)
}
