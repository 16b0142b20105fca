package experiments

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// TestHeteroBenchScenarioRuns replays the load-cached mode at benchmark
// shape — 50 schedulers, 1000 machines in the canonical 50/30/20
// three-class mix, the hetero demand split, utilization 0.7 — ten times
// the cluster TestHeteroScenarioSmoke sweeps and half that of bench/'s
// sim-loadcache-hetero workload. Every job must finish (RunTrace panics
// otherwise), which at this size depends on the reprobe refresh finding
// a fitting machine among a thousand.
func TestHeteroBenchScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second replay; skipped with -short")
	}
	spec := ClusterSpec{Exec: cluster.DefaultExecModel(), Classes: []cluster.MachineClass{
		{Name: "small", Count: 500, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
		{Name: "standard", Count: 300, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: 200, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}}
	tr := GenTrace(workload.Facebook(), 140, 0.7, spec, 7007)
	stampHeteroDemand(tr.Jobs)
	kind := Decentral(func(eng *simulator.Engine, exec *cluster.Executor) *decentral.System {
		return decentral.New(eng, exec, decentral.Config{
			Mode: decentral.ModeLoadCache, NumSchedulers: 50, ReprobeInterval: 1,
		})
	})
	if r := RunTrace(kind, spec, CloneJobs(tr.Jobs), 7008); r.Exec.CopiesStarted <= 0 {
		t.Fatalf("no copies started: %+v", r)
	}
}
