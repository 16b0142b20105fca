package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// Trace serialization: a JSON format for saving generated workloads and
// loading external ones, so experiments can replay the exact same trace
// across builds (or import real traces massaged into this shape).

// TaskJSON is one task's serialized form.
type TaskJSON struct {
	Replicas []int `json:"replicas,omitempty"`
}

// PhaseJSON is one phase's serialized form.
type PhaseJSON struct {
	Deps         []int      `json:"deps,omitempty"`
	MeanDur      float64    `json:"mean_dur"`
	TransferWork float64    `json:"transfer_work,omitempty"`
	Tasks        []TaskJSON `json:"tasks"`
}

// JobJSON is one job's serialized form.
type JobJSON struct {
	ID      int         `json:"id"`
	Name    string      `json:"name,omitempty"`
	Arrival float64     `json:"arrival"`
	Phases  []PhaseJSON `json:"phases"`
}

// TraceJSON is the on-disk trace format.
type TraceJSON struct {
	TotalWork float64   `json:"total_work"`
	Horizon   float64   `json:"horizon"`
	Jobs      []JobJSON `json:"jobs"`
}

// WriteTrace serializes a trace as JSON.
func WriteTrace(w io.Writer, tr *Trace) error {
	out := TraceJSON{TotalWork: tr.TotalWork, Horizon: tr.Horizon}
	for _, j := range tr.Jobs {
		jj := JobJSON{ID: int(j.ID), Name: j.Name, Arrival: j.Arrival}
		for _, p := range j.Phases {
			pj := PhaseJSON{
				Deps:         append([]int(nil), p.Deps...),
				MeanDur:      p.MeanTaskDuration,
				TransferWork: p.TransferWork,
			}
			for _, t := range p.Tasks {
				tj := TaskJSON{}
				for _, r := range t.Replicas {
					tj.Replicas = append(tj.Replicas, int(r))
				}
				pj.Tasks = append(pj.Tasks, tj)
			}
			jj.Phases = append(jj.Phases, pj)
		}
		out.Jobs = append(out.Jobs, jj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadTrace deserializes a trace, validating structure (phase deps in
// range and acyclic by construction, nonempty phases, nonnegative times).
// A file carries no slot count, so the result's OfferedLoad is 0: a
// caller that knows the cluster asks LoadOn for it.
func ReadTrace(r io.Reader) (*Trace, error) {
	var in TraceJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	tr := &Trace{TotalWork: in.TotalWork, Horizon: in.Horizon}
	for _, jj := range in.Jobs {
		if len(jj.Phases) == 0 {
			return nil, fmt.Errorf("workload: job %d has no phases", jj.ID)
		}
		if jj.Arrival < 0 {
			return nil, fmt.Errorf("workload: job %d has negative arrival", jj.ID)
		}
		var phases []*cluster.Phase
		for pi, pj := range jj.Phases {
			if len(pj.Tasks) == 0 {
				return nil, fmt.Errorf("workload: job %d phase %d has no tasks", jj.ID, pi)
			}
			if pj.MeanDur <= 0 {
				return nil, fmt.Errorf("workload: job %d phase %d non-positive duration", jj.ID, pi)
			}
			ph := &cluster.Phase{
				MeanTaskDuration: pj.MeanDur,
				TransferWork:     pj.TransferWork,
			}
			for _, d := range pj.Deps {
				if d < 0 || d >= pi {
					return nil, fmt.Errorf("workload: job %d phase %d dep %d out of range", jj.ID, pi, d)
				}
				ph.Deps = append(ph.Deps, d)
			}
			for _, tj := range pj.Tasks {
				for _, rep := range tj.Replicas {
					if rep < 0 {
						return nil, fmt.Errorf("workload: job %d negative replica", jj.ID)
					}
				}
			}
			ph.Tasks = cluster.NewTasks(len(pj.Tasks))
			cluster.PackReplicas(ph.Tasks, func(ti int) []int { return pj.Tasks[ti].Replicas })
			phases = append(phases, ph)
		}
		tr.Jobs = append(tr.Jobs, cluster.NewJob(cluster.JobID(jj.ID), jj.Name, jj.Arrival, phases))
	}
	return tr, nil
}
