package experiments

import (
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("ablation", "Design-choice ablations: what each Hopper mechanism contributes", runAblation)
}

// runAblation quantifies the contribution of Hopper's individual design
// choices by disabling them one at a time (DESIGN.md's ablation index):
//
//   - no speculation at all (straggler cost ceiling);
//   - LATE-flag-only speculation (no capacity-driven victims);
//   - probe ratio 2 instead of 4 (power of two instead of many);
//   - refusal threshold 0 (no Guideline 2/3 switching — workers assign
//     the first job that accepts).
//
// Each variant is compared to full decentralized Hopper on the same
// trace; positive "cost" means the variant is worse.
func runAblation(h Harness) *Result {
	res := &Result{ID: "ablation", Title: "Mechanism ablations (decentralized, util 70%)"}
	spec := Prototype200()
	prof := workload.Sparkify(workload.Facebook())

	type variant struct {
		name string
		kind SchedulerKind
	}
	variants := []variant{
		{"full Hopper-D", decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, CheckInterval: 0.1})},
		{"no speculation", decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, CheckInterval: 0.1,
			Spec: noSpecConfig()})},
		{"probe ratio 2", decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, CheckInterval: 0.1, ProbeRatio: 2})},
		{"refusal threshold 1", decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, CheckInterval: 0.1, RefusalThreshold: 1})},
		{"fairness off", decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, CheckInterval: 0.1,
			Spec: speculation.Config{Epsilon: 1}})},
	}

	tab := &metrics.Table{
		Title:  "Ablation: avg job duration (s) and delta (%) vs full Hopper-D",
		Header: []string{"variant", "avg duration", "delta vs full (%)"},
	}
	varAvgs := seedMedians(h, len(variants), 3100, 43, func(hh Harness, v, _ int, seed int64) []float64 {
		tr := GenTrace(prof, hh.jobs(1200), 0.7, spec, seed)
		return []float64{RunTrace(variants[v].kind, spec, CloneJobs(tr.Jobs), seed+1).Run.AvgCompletion()}
	})
	var full float64
	for vi, v := range variants {
		avg := varAvgs[vi][0]
		if v.name == "full Hopper-D" {
			full = avg
			tab.AddF(v.name, avg, 0.0)
			continue
		}
		tab.AddF(v.name, avg, (avg-full)/full*100)
	}
	res.Tables = append(res.Tables, tab)

	// Centralized counterpart: Hopper minus capacity speculation is just
	// SRPT-with-virtual-size-ordering; compare all three.
	ctab := &metrics.Table{
		Title:  "Ablation (centralized): avg job duration (s)",
		Header: []string{"engine", "avg duration"},
	}
	kinds := []variant{
		{"Hopper", centralHopper(scheduler.Config{CheckInterval: 0.1})},
		{"Hopper, spec off", centralHopper(scheduler.Config{CheckInterval: 0.1, DisableSpec: true})},
		{"SRPT", centralSRPT(scheduler.Config{CheckInterval: 0.1})},
	}
	centAvgs := seedMedians(h, len(kinds), 3200, 47, func(hh Harness, k, _ int, seed int64) []float64 {
		tr := GenTrace(prof, hh.jobs(1000), 0.7, spec, seed)
		return []float64{RunTrace(kinds[k].kind, spec, CloneJobs(tr.Jobs), seed+1).Run.AvgCompletion()}
	})
	for ki, k := range kinds {
		ctab.AddF(k.name, centAvgs[ki][0])
	}
	res.Tables = append(res.Tables, ctab)
	res.Notes = append(res.Notes,
		"expected: disabling speculation costs the most; probe ratio 2 and refusal threshold 1 each cost a few percent")
	return res
}

// noSpecConfig returns a speculation config that never requests copies:
// with a one-copy cap per task, no speculation is possible.
func noSpecConfig() speculation.Config {
	return speculation.Config{MaxCopies: 1}
}
