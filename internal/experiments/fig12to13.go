package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("fig12", "Centralized Hopper vs SRPT: bins and DAG length (Hadoop & Spark)", runFig12)
	register("fig13", "Locality allowance k: gains and data-local fraction", runFig13)
}

// fig12Profile describes one workload column of Figures 12 and 13.
type fig12Profile struct {
	name  string
	prof  workload.Profile
	check float64
	jobs  int
}

// runFig12 reproduces Figure 12: centralized Hopper against centralized
// SRPT on the Hadoop-like (30s tasks, disk) and Spark-like (1s tasks,
// memory) profiles: overall, by job bin, and by DAG length. Expected
// shape: ~50% overall gains in the paper, larger for large jobs, Spark
// modestly above Hadoop (shorter tasks make stragglers relatively more
// damaging), gains holding across DAG lengths.
func runFig12(h Harness) *Result {
	res := &Result{ID: "fig12", Title: "Centralized Hopper vs SRPT (Hadoop & Spark profiles)"}
	spec := Prototype200(1.5)

	profiles := []fig12Profile{
		{"hadoop", workload.Facebook(), 1.0, 500},
		{"spark", workload.Sparkify(workload.Facebook()), 0.1, 1500},
	}

	// A cell's row is binGains' columns followed by DAG lengths 2..8.
	med := seedMedians(h, len(profiles), 2500, 23, func(hh Harness, p, _ int, seed int64) []float64 {
		pc := profiles[p]
		cfg := scheduler.Config{CheckInterval: pc.check}
		tr := GenTrace(pc.prof, hh.jobs(pc.jobs), 0.6, spec, seed)
		runs := pairedRuns(hh, spec, tr.Jobs, seed+1, centralSRPT(cfg), centralHopper(cfg))
		base, hop := runs[0].Run, runs[1].Run
		return append(binGains(base, hop), lenGains(base, hop, 2, 8)...)
	})
	hadoop, spark := med[0], med[1]

	binTab := &metrics.Table{
		Title:  "Figure 12a: reduction (%) in avg duration vs centralized SRPT",
		Header: []string{"bin", "Hadoop", "Spark"},
	}
	dagTab := &metrics.Table{
		Title:  "Figure 12b: gains by DAG length",
		Header: []string{"phases", "Hadoop", "Spark"},
	}
	labels := binLabels()
	for i, label := range labels {
		binTab.AddF(label, hadoop[i], spark[i])
	}
	for i := len(labels); i < len(hadoop); i++ {
		dagTab.AddF(fmt.Sprintf("%d", i-len(labels)+2), hadoop[i], spark[i])
	}
	res.Tables = append(res.Tables, binTab, dagTab)
	res.Notes = append(res.Notes,
		"paper: ~50% overall gains, up to 80% for large bins, Spark consistently (modestly) above Hadoop")
	return res
}

// runFig13 reproduces Figure 13: sweeping the locality allowance k (the
// fraction of smallest jobs that can be bypassed for data-local work).
// Expected shape: gains and the data-local fraction rise to a sweet spot
// near k=3-7%, beyond which deviating from the guideline order costs more
// than locality pays.
func runFig13(h Harness) *Result {
	res := &Result{ID: "fig13", Title: "Locality allowance k sweep (centralized)"}
	spec := Prototype200(1.5)
	ks := []float64{0.0001, 1, 3, 5, 7, 10, 15}
	for _, pc := range []fig12Profile{
		{"spark", workload.Sparkify(workload.Facebook()), 0.1, 1500},
		{"hadoop", workload.Facebook(), 1.0, 500},
	} {
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 13 (%s): gains vs SRPT and data-local fraction", pc.name),
			Header: []string{"k (%)", "gain (%)", "local tasks (%)"},
		}
		srptKind := centralSRPT(scheduler.Config{CheckInterval: pc.check})

		// The trace and SRPT baseline depend only on the seed; run them
		// once per seed instead of once per k.
		type fig13Base struct {
			tr   *workload.Trace
			base RunResult
		}
		bases := seedMatrix(h, 1, 2700, 29, func(hh Harness, _, _ int, seed int64) fig13Base {
			tr := GenTrace(pc.prof, hh.jobs(pc.jobs), 0.6, spec, seed)
			return fig13Base{tr: tr, base: RunTrace(srptKind, spec, CloneJobs(tr.Jobs), seed+1)}
		})[0]

		med := seedMedians(h, len(ks), 2700, 29, func(hh Harness, ki, s int, seed int64) []float64 {
			b := bases[s]
			hopKind := centralHopper(scheduler.Config{CheckInterval: pc.check, LocalityK: ks[ki]})
			hop := RunTrace(hopKind, spec, CloneJobs(b.tr.Jobs), seed+1)
			return []float64{metrics.GainBetween(b.base.Run, hop.Run), hop.LocalFraction * 100}
		})

		for ki, k := range ks {
			label := fmt.Sprintf("%.0f", k)
			if k < 0.5 {
				label = "0"
			}
			tab.AddF(label, med[ki][0], med[ki][1])
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"paper: locality fraction rises with k; gains peak near k=3-7% then drop as the order deviates from the guidelines")
	return res
}
