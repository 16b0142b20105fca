package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// Scenarios is the robustness-scenario registry: drivers that exercise
// failure behavior (churn, recovery) rather than reproduce a paper
// figure. They live apart from Registry on purpose — the dispatch
// golden pins Registry's modes bit-for-bit, and fault paths are new
// scenarios, not behavior changes to existing ones. The scenario golden
// pins Scenarios separately.
var Scenarios []Experiment

func registerScenario(id, title string, run func(h Harness) *Result) {
	Scenarios = append(Scenarios, Experiment{ID: id, Title: title, Run: run})
}

// ScenarioByID returns the scenario with the given ID.
func ScenarioByID(id string) (Experiment, bool) {
	for _, e := range Scenarios {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func init() {
	registerScenario("churn", "Machine churn: completion time vs leave rate per decentralized mode", runChurn)
}

// churnRates are the sweep points, in machine leaves per minute over a
// 100-machine cluster (0 = the no-churn baseline).
var churnRates = []float64{0, 2, 6, 12}

// churnModes are the engines compared under churn.
var churnModes = []decentral.Mode{decentral.ModeHopper, decentral.ModeSparrow, decentral.ModeSparrowSRPT}

// churnKind builds a decentralized system with churn armed at the given
// leave spacing (0 disables).
func churnKind(mode decentral.Mode, leaveEvery float64, churnSeed int64) SchedulerKind {
	return func(eng *simulator.Engine, exec *cluster.Executor) Arriver {
		s := decentral.New(eng, exec, decentral.Config{Mode: mode})
		if leaveEvery > 0 {
			s.EnableChurn(decentral.ChurnConfig{
				LeaveEvery: leaveEvery,
				Downtime:   30,
				Seed:       churnSeed,
			})
		}
		return s
	}
}

// runChurn sweeps the machine-leave rate and reports, per decentralized
// mode, the average job completion time and its slowdown relative to
// that mode's own no-churn baseline, plus the recovery traffic the churn
// generated. Expected shape: all modes degrade gracefully (every job
// completes; the requeue/reprobe machinery absorbs the losses), with
// completion times rising as the leave rate grows.
func runChurn(h Harness) *Result {
	res := &Result{ID: "churn", Title: "Machine churn: join/leave as a first-class scenario"}
	spec := ClusterSpec{Machines: 100, SlotsPerMachine: 4, Exec: cluster.DefaultExecModel()}

	// Cell order: (rate, mode)-major, seed-minor. A cell's row is the
	// average completion followed by the recovery table's columns.
	nCfg := len(churnRates) * len(churnModes)
	med := seedMedians(h, nCfg, 8200, 31, func(hh Harness, cfg, _ int, seed int64) []float64 {
		rate := churnRates[cfg/len(churnModes)]
		mode := churnModes[cfg%len(churnModes)]
		leaveEvery := 0.0
		if rate > 0 {
			leaveEvery = 60 / rate
		}
		tr := GenTrace(churnProfile(), hh.jobs(150), 0.7, spec, seed)
		r := RunTrace(churnKind(mode, leaveEvery, seed+7), spec, CloneJobs(tr.Jobs), seed+1)
		return []float64{r.Run.AvgCompletion(),
			float64(r.MachinesLeft), float64(r.CopiesLost), float64(r.Requeues), float64(r.ProbesLost)}
	})

	avgTab := &metrics.Table{
		Title:  "avg job completion (s) vs machine leave rate (leaves/min, 100 machines)",
		Header: []string{"rate", "Hopper-D", "Sparrow", "Sparrow-SRPT"},
	}
	slowTab := &metrics.Table{
		Title:  "slowdown (%) vs each mode's own no-churn baseline",
		Header: []string{"rate", "Hopper-D", "Sparrow", "Sparrow-SRPT"},
	}
	recTab := &metrics.Table{
		Title:  "recovery traffic per run (medians, Hopper-D)",
		Header: []string{"rate", "leaves", "copies lost", "requeues", "probes lost"},
	}
	for ri, rate := range churnRates {
		label := fmt.Sprintf("%.0f", rate)
		m := med[ri*len(churnModes):]
		avgs := make([]float64, len(churnModes))
		slows := make([]float64, len(churnModes))
		for mi := range churnModes {
			avgs[mi] = m[mi][0]
			base := med[mi][0]
			slows[mi] = 100 * (avgs[mi] - base) / base
		}
		avgTab.AddF(label, avgs[0], avgs[1], avgs[2])
		slowTab.AddF(label, slows[0], slows[1], slows[2])
		hop := m[0]
		recTab.AddF(label, hop[1], hop[2], hop[3], hop[4])
	}
	res.Tables = append(res.Tables, avgTab, slowTab, recTab)
	res.Notes = append(res.Notes,
		"every job completes at every rate — the requeue/reprobe recovery machinery is the invariant under test; completion times degrade gracefully as churn grows")
	return res
}

// churnProfile is the workload for the churn sweep: Facebook-profile,
// size-capped so each cell stays tractable across the full rate × mode
// × seed matrix.
func churnProfile() workload.Profile {
	p := workload.Facebook()
	p.JobSizeCap = 120
	return p
}
