package experiments

import (
	"fmt"
	"math"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/workload"
)

// The heterogeneous-cluster scenario family: mixed machine classes
// (speed, slots, per-slot capacity) and mixed task demand, comparing
// the load-cached probe policy (Hopper-LC) against random-subset
// probing (Hopper-D) and power-of-two sampling (Sparrow). The class
// mixes and the demand split are scenario inputs, not paper figures —
// the paper's testbed is homogeneous — so this lives in Scenarios, not
// the paper-figure Registry.

func init() {
	registerScenario("hetero",
		"Heterogeneous classes: completion time and probe traffic, load-cache vs random probing",
		runHetero)
}

// heteroModes are the engines compared per class mix. All three run
// the same demand-stamped trace on the same classed cluster.
var heteroModes = []decentral.Mode{decentral.ModeLoadCache, decentral.ModeHopper, decentral.ModeSparrow}

// heteroMix is one cluster composition under test.
type heteroMix struct {
	name    string
	classes []cluster.MachineClass
}

// heteroMixes: a two-class split (standard + big) and a three-class
// split that adds a slow small tier. Capacities are chosen so the
// big-demand third of the workload fits only the big class, the
// small-demand third fits everything, and the zero-demand third is the
// homogeneous fast path.
var heteroMixes = []heteroMix{
	{name: "2-class", classes: []cluster.MachineClass{
		{Name: "standard", Count: 60, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: 40, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}},
	{name: "3-class", classes: []cluster.MachineClass{
		{Name: "small", Count: 50, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
		{Name: "standard", Count: 30, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: 20, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}},
}

// stampHeteroDemand assigns per-job resource demand in thirds by job
// index: zero demand (fits anywhere), small demand (fits every class),
// big demand (fits only the big class). Phases and tasks are stamped
// together — the trace generator has already expanded phases into
// tasks, so the NewJob default-propagation has already run.
func stampHeteroDemand(jobs []*cluster.Job) {
	demands := []cluster.Resources{
		{},                // zero: the homogeneous fast path
		{CPU: 2, Mem: 4},  // small: fits every class
		{CPU: 8, Mem: 16}, // big: fits only the big class
	}
	for i, j := range jobs {
		d := demands[i%len(demands)]
		if d.IsZero() {
			continue
		}
		for _, p := range j.Phases {
			p.Demand = d
			for _, t := range p.Tasks {
				t.Demand = d
			}
		}
	}
}

// runHetero sweeps class mixes × modes and reports median completion
// time and probe traffic. Expected shape: every job completes on every
// mode (the demand-aware hand-out plus the reprobe refresh are the
// liveness machinery under test), and the load-cached policy aims its
// probes at workers the cache says are free and fitting, beating
// random-subset probing on completion time or probe traffic.
func runHetero(h Harness) *Result {
	nCfg := len(heteroMixes) * len(heteroModes)
	med := seedMedians(h, nCfg, 9300, 37, func(hh Harness, cfg, _ int, seed int64) []float64 {
		mix := heteroMixes[cfg/len(heteroModes)]
		mode := heteroModes[cfg%len(heteroModes)]
		spec := ClusterSpec{Classes: mix.classes, Exec: cluster.DefaultExecModel()}
		tr := GenTrace(heteroProfile(), hh.jobs(120), 0.5, spec, seed)
		stampHeteroDemand(tr.Jobs)
		// The reprobe refresh is armed on every mode: with per-slot
		// capacities in play, a demand-carrying task whose probes all
		// landed on too-small workers needs the periodic re-roll to find
		// a machine it fits (see decentral.Config.ReprobeInterval).
		kind := decentralKind(decentral.Config{Mode: mode, ReprobeInterval: 1})
		r := RunTrace(kind, spec, CloneJobs(tr.Jobs), seed+1)
		return []float64{r.Run.AvgCompletion(), float64(r.Probes), float64(r.Messages)}
	})
	return heteroResult(med)
}

// heteroResult renders the sweep's medians, one (avg, probes, messages)
// row per (mix, mode) in cell order. Probe and message medians print
// truncated to whole messages (a two-seed median of 2211.5 prints
// 2211.0), and lcWins compares the truncated probe counts.
func heteroResult(med [][]float64) *Result {
	res := &Result{ID: "hetero", Title: "Heterogeneous machines: load-cached vs random probing"}
	for _, m := range med {
		m[1], m[2] = math.Trunc(m[1]), math.Trunc(m[2])
	}

	header := []string{"mix", "Hopper-LC", "Hopper-D", "Sparrow"}
	avgTab := &metrics.Table{Title: "avg job completion (s) per class mix (medians across seeds)", Header: header}
	probeTab := &metrics.Table{Title: "probe traffic per run (probes sent; medians across seeds)", Header: header}
	msgTab := &metrics.Table{Title: "total protocol messages per run (medians across seeds)", Header: header}
	lcWins := 0
	for mi, mix := range heteroMixes {
		m := med[mi*len(heteroModes):]
		lc, hd, spw := m[0], m[1], m[2]
		avgTab.AddF(mix.name, lc[0], hd[0], spw[0])
		probeTab.AddF(mix.name, lc[1], hd[1], spw[1])
		msgTab.AddF(mix.name, lc[2], hd[2], spw[2])
		if lc[0] < hd[0] || lc[1] < hd[1] {
			lcWins++
		}
	}
	res.Tables = append(res.Tables, avgTab, probeTab, msgTab)
	res.Notes = append(res.Notes,
		"every job completes on every mix × mode — demand-aware hand-out plus the reprobe refresh keep big-demand tasks live on clusters where most machines cannot run them",
		fmt.Sprintf("load-cache beats random-subset probing on completion time or probe traffic on %d of %d mixes", lcWins, len(heteroMixes)))
	return res
}

// heteroProfile is the workload for the hetero sweep: Facebook-profile,
// size-capped like the churn sweep so each cell stays tractable across
// the mix × mode × seed matrix.
func heteroProfile() workload.Profile {
	p := workload.Facebook()
	p.JobSizeCap = 120
	return p
}
