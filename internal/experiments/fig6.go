package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("fig6", "Decentralized Hopper gains vs cluster utilization (Facebook & Bing)", runFig6)
}

// runFig6 reproduces Figure 6: reduction in average job duration of
// decentralized Hopper over Sparrow and Sparrow-SRPT, for utilizations
// 60-90%, on both workloads. Expected shape: 50-60% gains at 60%
// utilization, similar against both baselines at >= 80%, Bing slightly
// higher than Facebook, under 20% gains at >= 80% utilization.
func runFig6(h Harness) *Result {
	res := &Result{ID: "fig6", Title: "Hopper-D gains by utilization"}
	utils := []float64{0.60, 0.70, 0.80, 0.90}
	spec := Prototype200(1.5)

	profs := []string{"facebook", "bing"}
	type cfg struct {
		prof string
		util float64
	}
	var cfgs []cfg
	for _, p := range profs {
		for _, u := range utils {
			cfgs = append(cfgs, cfg{p, u})
		}
	}
	med := seedMedians(h, len(cfgs), 9000, 311, func(hh Harness, c, _ int, seed int64) []float64 {
		base, _ := workload.ProfileByName(cfgs[c].prof) // profs names built-in profiles only
		prof := workload.Sparkify(base)
		tr := GenTrace(prof, hh.jobs(1200), cfgs[c].util, spec, seed)
		runs := pairedRuns(hh, spec, tr.Jobs, seed+1,
			decentralKind(decentral.Config{Mode: decentral.ModeSparrow, CheckInterval: 0.1}),
			decentralKind(decentral.Config{Mode: decentral.ModeSparrowSRPT, CheckInterval: 0.1}),
			decentralKind(decentral.Config{Mode: decentral.ModeHopper, CheckInterval: 0.1}),
		)
		hh.logf("fig6 %s util=%.0f%% seed=%d: sparrow=%.1fs srpt=%.1fs hopper=%.1fs",
			cfgs[c].prof, cfgs[c].util*100, seed,
			runs[0].Run.AvgCompletion(), runs[1].Run.AvgCompletion(), runs[2].Run.AvgCompletion())
		return []float64{metrics.GainBetween(runs[0].Run, runs[2].Run), metrics.GainBetween(runs[1].Run, runs[2].Run)}
	})
	for pi, profName := range profs {
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 6 (%s): reduction (%%) in avg job duration", profName),
			Header: []string{"util", "vs Sparrow", "vs Sparrow-SRPT"},
		}
		for ui, util := range utils {
			m := med[pi*len(utils)+ui]
			tab.AddF(fmt.Sprintf("%.0f%%", util*100), m[0], m[1])
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"paper: up to 66% vs Sparrow-SRPT at 60% util, gains fall under 20% at >=80% util, Bing slightly higher")
	return res
}
