package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("fig5a", "Power of many choices: probe count vs centralized-relative duration", runFig5a)
	register("fig5b", "Refusal threshold vs centralized-relative duration", runFig5b)
	register("fig11", "Probe ratio sweep at several utilizations (prototype)", runFig11)
}

// fig5Spec is the Figure 5 simulation setup scaled down from the paper's
// 50 schedulers / 10,000 workers (the ratio between schedulers, workers,
// and load is what matters for the probing argument). The default
// execution model's β is the figure's stated task-size tail.
func fig5Spec(h Harness) (ClusterSpec, int) {
	workers := int(2000 * h.Scale)
	if workers < 200 {
		workers = 200
	}
	spec := ClusterSpec{Machines: workers, SlotsPerMachine: 1, Exec: cluster.DefaultExecModel()}
	return spec, workers / 40 // schedulers
}

// centralizedRef runs the same trace under the centralized Hopper engine,
// the reference line in Figures 5a/5b.
func centralizedRef(spec ClusterSpec, jobs []*cluster.Job, seed int64) float64 {
	kind := centralHopper(scheduler.Config{CheckInterval: 0.1})
	return RunTrace(kind, spec, CloneJobs(jobs), seed).Run.AvgCompletion()
}

// fig5Ref is one (utilization, seed) cell's shared inputs: the trace and
// the centralized reference duration every sweep point divides by.
type fig5Ref struct {
	tr  *workload.Trace
	ref float64
}

// fig5Refs generates the per-(util, seed) traces and centralized
// references once, instead of once per sweep point as the serial driver
// used to; every sweep cell then reads the shared, immutable trace.
func fig5Refs(h Harness, utils []float64, base, stride int64) [][]fig5Ref {
	spec, _ := fig5Spec(h)
	prof := workload.Sparkify(workload.Facebook())
	prof.JobSizeCap = 400 // single-slot workers: keep jobs below cluster size
	return seedMatrix(h, len(utils), base, stride, func(hh Harness, u, _ int, seed int64) fig5Ref {
		tr := GenTrace(prof, hh.jobs(1500), utils[u], spec, seed)
		return fig5Ref{tr: tr, ref: centralizedRef(spec, tr.Jobs, seed+1)}
	})
}

// runFig5a reproduces Figure 5a: the ratio of decentralized job duration
// to the centralized scheduler, as the probe count d grows, for Hopper
// and Sparrow. Expected shape: Hopper approaches the centralized line
// (within ~15%) by d=4 and plateaus; Sparrow stays far above it because
// FIFO workers cannot exploit extra probes.
func runFig5a(h Harness) *Result {
	res := &Result{ID: "fig5a", Title: "Probe count d vs duration ratio over centralized"}
	spec, nSched := fig5Spec(h)
	utils := []float64{0.7, 0.9}
	ds := []float64{2, 3, 4, 6, 8}
	refs := fig5Refs(h, utils, 500, 31)

	med := seedMedians(h, len(utils)*len(ds), 500, 31, func(hh Harness, c, s int, seed int64) []float64 {
		u, di := c/len(ds), c%len(ds)
		rf := refs[u][s]
		runs := pairedRuns(hh, spec, rf.tr.Jobs, seed+1,
			decentralKind(decentral.Config{
				Mode: decentral.ModeHopper, NumSchedulers: nSched,
				ProbeRatio: ds[di], CheckInterval: 0.1,
			}),
			decentralKind(decentral.Config{
				Mode: decentral.ModeSparrow, NumSchedulers: nSched,
				ProbeRatio: ds[di], CheckInterval: 0.1,
			}),
		)
		return []float64{runs[0].Run.AvgCompletion() / rf.ref, runs[1].Run.AvgCompletion() / rf.ref}
	})

	for ui, util := range utils {
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 5a (util=%.0f%%): job duration ratio vs centralized", util*100),
			Header: []string{"d", "Hopper-D", "Sparrow"},
		}
		for di, d := range ds {
			m := med[ui*len(ds)+di]
			tab.AddF(fmt.Sprintf("%.0f", d), fmt.Sprintf("%.2f", m[0]), fmt.Sprintf("%.2f", m[1]))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"paper: Hopper within ~15% of centralized, plateauing beyond d=4; Sparrow >2x at high utilization")
	return res
}

// runFig5b reproduces Figure 5b: sensitivity to the worker's refusal
// threshold. Expected shape: two to three refusals bring performance
// within 10-15% of centralized; more refusals add little.
func runFig5b(h Harness) *Result {
	res := &Result{ID: "fig5b", Title: "Refusal threshold vs duration ratio over centralized"}
	spec, nSched := fig5Spec(h)
	utils := []float64{0.7, 0.9}
	rts := []int{1, 2, 3, 5, 8}
	refs := fig5Refs(h, utils, 700, 37)

	med := seedMedians(h, len(utils)*len(rts), 700, 37, func(hh Harness, c, s int, seed int64) []float64 {
		u, ri := c/len(rts), c%len(rts)
		rf := refs[u][s]
		hop := RunTrace(decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, NumSchedulers: nSched,
			RefusalThreshold: rts[ri], CheckInterval: 0.1,
		}), spec, CloneJobs(rf.tr.Jobs), seed+1)
		return []float64{hop.Run.AvgCompletion() / rf.ref}
	})

	for ui, util := range utils {
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 5b (util=%.0f%%)", util*100),
			Header: []string{"refusals", "Hopper-D vs centralized"},
		}
		for ri, rt := range rts {
			tab.AddF(fmt.Sprintf("%d", rt), fmt.Sprintf("%.2f", med[ui*len(rts)+ri][0]))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes, "paper: 2-3 refusals reach within 10-15% of the centralized scheduler")
	return res
}

// runFig11 reproduces Figure 11: probe-ratio sweep on the prototype
// setup. Expected shape: gains over Sparrow-SRPT rise with probe ratio up
// to ~4; at 90% utilization the messaging overhead makes higher ratios
// slip.
func runFig11(h Harness) *Result {
	res := &Result{ID: "fig11", Title: "Probe ratio vs gains (decentralized prototype)"}
	spec := Prototype200()
	prof := workload.Sparkify(workload.Facebook())
	tab := &metrics.Table{
		Title:  "Figure 11: reduction (%) in avg job duration vs Sparrow-SRPT",
		Header: []string{"probe ratio", "util 60%", "util 80%", "util 90%"},
	}
	utils := []float64{0.6, 0.8, 0.9}
	ratios := []float64{2, 2.5, 3, 4, 5}

	// The Sparrow-SRPT baseline depends only on (util, seed); run it once
	// per cell instead of once per probe ratio.
	type fig11Base struct {
		tr   *workload.Trace
		base RunResult
	}
	bases := seedMatrix(h, len(utils), 1100, 41, func(hh Harness, u, _ int, seed int64) fig11Base {
		tr := GenTrace(prof, hh.jobs(1200), utils[u], spec, seed)
		return fig11Base{tr: tr, base: RunTrace(decentralKind(decentral.Config{
			Mode: decentral.ModeSparrowSRPT, CheckInterval: 0.1,
		}), spec, CloneJobs(tr.Jobs), seed+1)}
	})

	med := seedMedians(h, len(utils)*len(ratios), 1100, 41, func(hh Harness, c, s int, seed int64) []float64 {
		u, di := c/len(ratios), c%len(ratios)
		b := bases[u][s]
		hop := RunTrace(decentralKind(decentral.Config{
			Mode: decentral.ModeHopper, ProbeRatio: ratios[di], CheckInterval: 0.1,
		}), spec, CloneJobs(b.tr.Jobs), seed+1)
		return []float64{metrics.GainBetween(b.base.Run, hop.Run)}
	})

	for di, d := range ratios {
		row := []string{fmt.Sprintf("%.1f", d)}
		for ui := range utils {
			row = append(row, fmt.Sprintf("%.1f", med[ui*len(ratios)+di][0]))
		}
		tab.Add(row...)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "paper: gains peak near probe ratio 4; at 90% util they start slipping by 2.5")
	return res
}
