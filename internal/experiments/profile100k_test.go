package experiments

import (
	"os"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// TestProfile100k replays decentralized Hopper (50 schedulers) on
// 100,000 machines × 4 slots once — the trace, seeds and set-up of the
// `decentral-hopper-100k` row the frozen BENCH_PR5…PR10.json files
// record — and pins its two counts (PR 17 read 279,277 decisions and
// 96,591,973 events; PR 20 moved them on purpose when workers stopped
// polling, CHANGES.md). It is the one exact number the "1k → 1M" half
// of the north star keeps until bench/ grows a 100k workload, and the
// replay to profile (go test -run TestProfile100k -cpuprofile ...).
// Opt-in: set HOPPER_PROFILE_100K to run it.
func TestProfile100k(t *testing.T) {
	if os.Getenv("HOPPER_PROFILE_100K") == "" {
		t.Skip("set HOPPER_PROFILE_100K=1 to run the 100k-machine replay")
	}
	const (
		wantDecisions = 280645
		wantEvents    = 3286206
	)
	spec := ClusterSpec{Machines: 100000, SlotsPerMachine: 4, Exec: cluster.DefaultExecModel()}
	tr := GenTrace(workload.Facebook(), 2400, 0.7, spec, 7005)
	var eng *simulator.Engine
	kind := func(e *simulator.Engine, exec *cluster.Executor) Arriver {
		eng = e
		return decentral.New(e, exec, decentral.Config{Mode: decentral.ModeHopper, NumSchedulers: 50})
	}
	start := time.Now()
	r := RunTrace(kind, spec, CloneJobs(tr.Jobs), 7006)
	t.Logf("%d decisions, %d events, %.1fs wall", r.Exec.CopiesStarted, eng.Fired, time.Since(start).Seconds())
	if r.Exec.CopiesStarted != wantDecisions || eng.Fired != wantEvents {
		t.Fatalf("got %d decisions and %d events, want %d and %d",
			r.Exec.CopiesStarted, eng.Fired, wantDecisions, wantEvents)
	}
}
