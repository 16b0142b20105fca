package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/stats"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("fig7", "Gains by job-size bin over Sparrow-SRPT", runFig7)
	register("fig8a", "CDF of per-job gains at 60% utilization", runFig8a)
	register("fig8b", "Gains vs DAG length", runFig8b)
	register("fig9", "Gains under LATE, Mantri, GRASS", runFig9)
	register("fig10", "Fairness knob epsilon: sensitivity and slowdowns", runFig10)
}

// binLabels are the row labels of a by-job-size gain table, in the
// column order binGains returns.
func binLabels() []string { return append([]string{"overall"}, workload.SizeBins()...) }

// binGains returns hop's gain over base overall and per job-size bin, in
// binLabels order. A bin no job fell into is NaN.
func binGains(base, hop metrics.Run) []float64 {
	row := []float64{metrics.GainBetween(base, hop)}
	for _, bin := range workload.SizeBins() {
		row = append(row, metrics.GainWhere(base, hop, func(j metrics.JobResult) bool {
			return workload.SizeBin(j.Tasks) == bin
		}))
	}
	return row
}

// lenGains returns hop's gain over base for each DAG length lo..hi.
func lenGains(base, hop metrics.Run, lo, hi int) []float64 {
	var row []float64
	for l := lo; l <= hi; l++ {
		row = append(row, metrics.GainWhere(base, hop, func(j metrics.JobResult) bool {
			return j.DAGLen == l
		}))
	}
	return row
}

// srptVsHopperGains replays one trace under Sparrow-SRPT and Hopper-D and
// returns binGains — the common cell of Figures 7 and 9.
func srptVsHopperGains(hh Harness, spec ClusterSpec, tr *workload.Trace, seed int64, sc speculation.Config) []float64 {
	runs := pairedRuns(hh, spec, tr.Jobs, seed,
		decentralKind(decentral.Config{Mode: decentral.ModeSparrowSRPT, Spec: sc, CheckInterval: 0.1}),
		decentralKind(decentral.Config{Mode: decentral.ModeHopper, Spec: sc, CheckInterval: 0.1}),
	)
	return binGains(runs[0].Run, runs[1].Run)
}

// runFig7 reproduces Figure 7: gains over Sparrow-SRPT broken down by the
// paper's job-size bins. Expected shape: small jobs gain least (the SRPT
// baseline already favors them), large jobs gain most (>50% in the
// paper); every bin gains.
func runFig7(h Harness) *Result {
	res := &Result{ID: "fig7", Title: "Gains by job bin (decentralized, util 60%)"}
	spec := Prototype200(1.5)
	profs := []string{"facebook", "bing"}

	med := seedMedians(h, len(profs), 1700, 13, func(hh Harness, p, _ int, seed int64) []float64 {
		base, _ := workload.ProfileByName(profs[p]) // profs names built-in profiles only
		prof := workload.Sparkify(base)
		tr := GenTrace(prof, hh.jobs(1500), 0.6, spec, seed)
		return srptVsHopperGains(hh, spec, tr, seed+1, speculation.Config{})
	})

	for pi, profName := range profs {
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 7 (%s): reduction (%%) vs Sparrow-SRPT by job size", profName),
			Header: append([]string{"bin"}, "gain"),
		}
		for i, label := range binLabels() {
			tab.AddF(label, med[pi][i])
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"paper: small jobs 18-32% (SRPT baseline already favors them), large jobs >50%")
	return res
}

// runFig8a reproduces Figure 8a: the distribution of per-job gains at 60%
// utilization. Expected shape: median above the mean of the distribution
// tails, >70% gains at high percentiles, positive gains even at P10.
func runFig8a(h Harness) *Result {
	res := &Result{ID: "fig8a", Title: "CDF of per-job gains (util 60%)"}
	spec := Prototype200(1.5)
	prof := workload.Sparkify(workload.Facebook())
	seed := int64(1800)
	tr := GenTrace(prof, h.jobs(2000), 0.6, spec, seed)
	runs := pairedRuns(h, spec, tr.Jobs, seed+1,
		decentralKind(decentral.Config{Mode: decentral.ModeSparrowSRPT, CheckInterval: 0.1}),
		decentralKind(decentral.Config{Mode: decentral.ModeHopper, CheckInterval: 0.1}),
	)
	gains := metrics.PerJobGains(runs[0].Run, runs[1].Run)
	var summ stats.Summary
	for _, g := range gains {
		summ.Add(g)
	}
	tab := &metrics.Table{
		Title:  "Figure 8a: per-job gain (%) percentiles",
		Header: []string{"percentile", "gain (%)"},
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95} {
		tab.AddF(fmt.Sprintf("P%.0f", p), summ.Percentile(p))
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "paper: >70% gains at high percentiles; 10-15% even at P10")
	return res
}

// runFig8b reproduces Figure 8b: gains by DAG length at 60% utilization.
// Expected shape: gains hold across DAG lengths (no systematic decline).
func runFig8b(h Harness) *Result {
	res := &Result{ID: "fig8b", Title: "Gains vs DAG length (util 60%)"}
	spec := Prototype200(1.5)
	prof := workload.Sparkify(workload.Facebook())
	// More long DAGs so the deep bins are populated.
	prof.DAGLenWeights = []float64{0.15, 0.25, 0.15, 0.12, 0.11, 0.09, 0.07, 0.06}
	tab := &metrics.Table{
		Title:  "Figure 8b: reduction (%) vs Sparrow-SRPT by DAG length",
		Header: []string{"phases", "gain"},
	}

	med := seedMedians(h, 1, 1900, 17, func(hh Harness, _, _ int, seed int64) []float64 {
		tr := GenTrace(prof, hh.jobs(1500), 0.6, spec, seed)
		runs := pairedRuns(hh, spec, tr.Jobs, seed+1,
			decentralKind(decentral.Config{Mode: decentral.ModeSparrowSRPT, CheckInterval: 0.1}),
			decentralKind(decentral.Config{Mode: decentral.ModeHopper, CheckInterval: 0.1}),
		)
		return lenGains(runs[0].Run, runs[1].Run, 1, 8)
	})[0]

	for i, g := range med {
		tab.AddF(fmt.Sprintf("%d", i+1), g)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "paper: gains hold across DAG lengths")
	return res
}

// runFig9 reproduces Figure 9: gains with each straggler-mitigation
// algorithm paired with both systems. Expected shape: similar gains with
// LATE, Mantri, and GRASS — the benefit is the coordination, not the
// detector.
func runFig9(h Harness) *Result {
	res := &Result{ID: "fig9", Title: "Gains by speculation algorithm (util 60%)"}
	spec := Prototype200(1.5)
	prof := workload.Sparkify(workload.Facebook())
	tab := &metrics.Table{
		Title:  "Figure 9: reduction (%) vs Sparrow-SRPT with the same policy",
		Header: []string{"bin", "LATE", "Mantri", "GRASS"},
	}
	pols := []string{"LATE", "Mantri", "GRASS"}

	med := seedMedians(h, len(pols), 2100, 19, func(hh Harness, p, _ int, seed int64) []float64 {
		tr := GenTrace(prof, hh.jobs(1200), 0.6, spec, seed)
		sc := speculation.Config{Policy: speculation.ByName(pols[p])}
		return srptVsHopperGains(hh, spec, tr, seed+1, sc)
	})

	for i, label := range binLabels() {
		tab.AddF(label, med[0][i], med[1][i], med[2][i])
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "paper: gains nearly identical across the three mitigation algorithms")
	return res
}

// runFig10 reproduces Figure 10: the fairness knob. (a) gains vs epsilon;
// (b) fraction of jobs slowed versus a perfectly fair allocation;
// (c) average/worst slowdown of those jobs. Expected shape: gains rise
// quickly until epsilon ~10-15% then flatten; at epsilon = 10% fewer than
// ~4-5% of jobs slow down, and mildly.
func runFig10(h Harness) *Result {
	res := &Result{ID: "fig10", Title: "epsilon-fairness sensitivity and slowdowns"}
	spec := Prototype200(1.5)
	prof := workload.Sparkify(workload.Facebook())
	tab := &metrics.Table{
		Title:  "Figure 10: gains vs epsilon; slowdowns vs fair allocation (epsilon=0)",
		Header: []string{"epsilon", "gain vs Sparrow-SRPT", "% jobs slowed", "avg slow (%)", "worst slow (%)"},
	}
	seed := int64(2300)
	tr := GenTrace(prof, h.jobs(1500), 0.7, spec, seed)
	epss := []float64{1e-9, 0.05, 0.10, 0.15, 0.20, 0.30}

	// One cell per run: the Sparrow-SRPT baseline, the perfectly fair
	// allocation, then one Hopper run per epsilon — all on clones of the
	// same trace.
	kinds := []SchedulerKind{
		decentralKind(decentral.Config{Mode: decentral.ModeSparrowSRPT, CheckInterval: 0.1}),
		decentralKind(decentral.Config{Mode: decentral.ModeHopper, Epsilon: 1e-9, CheckInterval: 0.1}),
	}
	for _, eps := range epss {
		kinds = append(kinds, decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, Epsilon: eps, CheckInterval: 0.1,
		}))
	}
	runs := pairedRuns(h, spec, tr.Jobs, seed+1, kinds...)
	baseSRPT, fair := runs[0], runs[1]

	for i, eps := range epss {
		hop := runs[2+i]
		gain := metrics.GainBetween(baseSRPT.Run, hop.Run)
		sd := metrics.Slowdowns(metrics.PerJobGains(fair.Run, hop.Run))
		tab.AddF(fmt.Sprintf("%.0f%%", eps*100), gain,
			sd.FractionSlowed*100, sd.AvgIncrease, sd.WorstIncrease)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"paper: gains flatten past epsilon~15%; at 10% fewer than 4% of jobs slow down, by <=5% on average")
	return res
}
