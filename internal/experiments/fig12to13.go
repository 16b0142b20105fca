package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/stats"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("fig12", "Centralized Hopper vs SRPT: bins and DAG length (Hadoop & Spark)", runFig12)
	register("fig13", "Locality allowance k: gains and data-local fraction", runFig13)
}

// centralKinds builds the centralized Hopper/SRPT pair with the given
// speculation check cadence.
func centralKinds(check float64) (hopper, srpt SchedulerKind) {
	hopper = Central(func(eng *simulator.Engine, exec *cluster.Executor) scheduler.Engine {
		return scheduler.NewHopper(eng, exec, scheduler.Config{CheckInterval: check})
	})
	srpt = Central(func(eng *simulator.Engine, exec *cluster.Executor) scheduler.Engine {
		return scheduler.NewSRPT(eng, exec, scheduler.Config{CheckInterval: check})
	})
	return
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

	type gains struct {
		overall float64
		byBin   map[string]float64
		byLen   map[int]float64
	}
	rows := seedMatrix(h, len(profiles), 2500, 23, func(hh Harness, p, _ int, seed int64) gains {
		pc := profiles[p]
		hopKind, srptKind := centralKinds(pc.check)
		tr := GenTrace(pc.prof, hh.jobs(pc.jobs), 0.6, spec, seed)
		runs := pairedRuns(hh, spec, tr.Jobs, seed+1, srptKind, hopKind)
		base, hop := runs[0], runs[1]
		g := gains{
			overall: metrics.GainBetween(base.Run, hop.Run),
			byBin:   map[string]float64{},
			byLen:   map[int]float64{},
		}
		for _, bin := range workload.SizeBins() {
			bin := bin
			g.byBin[bin] = metrics.GainWhere(base.Run, hop.Run,
				func(j metrics.JobResult) bool { return workload.SizeBin(j.Tasks) == bin })
		}
		for l := 2; l <= 8; l++ {
			l := l
			g.byLen[l] = metrics.GainWhere(base.Run, hop.Run,
				func(j metrics.JobResult) bool { return j.DAGLen == l })
		}
		return g
	})

	binTab := &metrics.Table{
		Title:  "Figure 12a: reduction (%) in avg duration vs centralized SRPT",
		Header: []string{"bin", "Hadoop", "Spark"},
	}
	dagTab := &metrics.Table{
		Title:  "Figure 12b: gains by DAG length",
		Header: []string{"phases", "Hadoop", "Spark"},
	}
	binCols := map[string]map[string]float64{}
	dagCols := map[string]map[int]float64{}
	for pi, pc := range profiles {
		var overall []float64
		byBin := map[string][]float64{}
		byLen := map[int][]float64{}
		for _, g := range rows[pi] {
			overall = append(overall, g.overall)
			for _, bin := range workload.SizeBins() {
				byBin[bin] = append(byBin[bin], g.byBin[bin])
			}
			for l := 2; l <= 8; l++ {
				byLen[l] = append(byLen[l], g.byLen[l])
			}
		}
		binCols[pc.name] = map[string]float64{"overall": stats.Median(overall)}
		for _, bin := range workload.SizeBins() {
			binCols[pc.name][bin] = stats.Median(byBin[bin])
		}
		dagCols[pc.name] = map[int]float64{}
		for l := 2; l <= 8; l++ {
			dagCols[pc.name][l] = stats.Median(byLen[l])
		}
	}
	for _, r := range append([]string{"overall"}, workload.SizeBins()...) {
		binTab.AddF(r, binCols["hadoop"][r], binCols["spark"][r])
	}
	for l := 2; l <= 8; l++ {
		dagTab.AddF(fmt.Sprintf("%d", l), dagCols["hadoop"][l], dagCols["spark"][l])
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
		pc := pc
		tab := &metrics.Table{
			Title:  fmt.Sprintf("Figure 13 (%s): gains vs SRPT and data-local fraction", pc.name),
			Header: []string{"k (%)", "gain (%)", "local tasks (%)"},
		}
		srptKind := Central(func(eng *simulator.Engine, exec *cluster.Executor) scheduler.Engine {
			return scheduler.NewSRPT(eng, exec, scheduler.Config{CheckInterval: pc.check})
		})

		// The trace and SRPT baseline depend only on the seed; run them
		// once per seed instead of once per k.
		type fig13Base struct {
			tr   *workload.Trace
			base RunResult
		}
		bases := forSeeds(h, 2700, 29, func(hh Harness, seed int64) fig13Base {
			tr := GenTrace(pc.prof, hh.jobs(pc.jobs), 0.6, spec, seed)
			return fig13Base{tr: tr, base: RunTrace(srptKind, spec, CloneJobs(tr.Jobs), seed+1)}
		})

		type kGain struct{ gain, local float64 }
		rows := seedMatrix(h, len(ks), 2700, 29, func(hh Harness, ki, s int, seed int64) kGain {
			k := ks[ki]
			b := bases[s]
			hopKind := Central(func(eng *simulator.Engine, exec *cluster.Executor) scheduler.Engine {
				return scheduler.NewHopper(eng, exec, scheduler.Config{CheckInterval: pc.check, LocalityK: k})
			})
			hop := RunTrace(hopKind, spec, CloneJobs(b.tr.Jobs), seed+1)
			return kGain{
				gain:  metrics.GainBetween(b.base.Run, hop.Run),
				local: hop.LocalFraction * 100,
			}
		})

		for ki, k := range ks {
			var gains, locals []float64
			for _, g := range rows[ki] {
				gains = append(gains, g.gain)
				locals = append(locals, g.local)
			}
			label := fmt.Sprintf("%.0f", k)
			if k < 0.5 {
				label = "0"
			}
			tab.AddF(label, stats.Median(gains), stats.Median(locals))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"paper: locality fraction rises with k; gains peak near k=3-7% then drop as the order deviates from the guidelines")
	return res
}
