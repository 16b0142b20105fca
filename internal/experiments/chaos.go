package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/wire"
)

// chaos is a robustness scenario, not a paper figure: the scenario
// golden pins it, not the dispatch golden.
func init() {
	register("chaos", "Failure domains: the shipped live nodes on a virtual clock under frame faults", runChaos)
}

// chaosCells are the fault plans of the live package's chaos frame-log
// golden (TestChaosFrameLogGolden); the driver runs each at every seed.
var chaosCells = []struct {
	name string
	cell live.ChaosCell
}{
	{"zero-rates", live.ChaosCell{}},
	{"drop-everywhere", live.ChaosCell{Rates: live.Rates{Drop: 0.1}}},
	{"dup-everywhere", live.ChaosCell{Rates: live.Rates{Dup: 0.1}}},
	{"delay-reorder", live.ChaosCell{Rates: live.Rates{Delay: 0.3}}},
	{"mixed", live.ChaosCell{Rates: live.Rates{Drop: 0.05, Dup: 0.05, Delay: 0.1}}},
	{"partition", live.ChaosCell{Partition: [2]float64{3.0, 6.0}}},
	{"lost-probes", live.ChaosCell{PerType: map[wire.MsgType]live.Rates{wire.TReserve: {Drop: 0.33}}}},
	{"lost-taskdone", live.ChaosCell{PerType: map[wire.MsgType]live.Rates{wire.TTaskDone: {Drop: 0.2}}}},
	{"lost-kill", live.ChaosCell{PerType: map[wire.MsgType]live.Rates{wire.TKill: {Drop: 0.5}}}},
}

// runChaos runs every chaos cell on the virtual cluster (live.RunVirtual)
// at each seed and reports, per run, what the faults did and what the
// recovery paths absorbed, with Check's verdict. Expected shape: every
// run reads ok — every job completes under every fault plan — and the
// recovery counters rise with the faults injected (offer timeouts under
// loss and partition, watchdog expiries and requeues under lost reports).
func runChaos(h Harness) *Result {
	res := &Result{ID: "chaos", Title: "Failure domains: the shipped live nodes under seeded faults"}
	runs := seedMatrix(h, len(chaosCells), 11, 12, func(hh Harness, ci, _ int, seed int64) []string {
		cell := chaosCells[ci].cell
		cell.Seed = seed
		v := live.RunVirtual(cell)
		done, aborted := v.Jobs()
		f, st := v.Faults(), v.Stats()
		verdict := "ok"
		if err := v.Check(); err != nil {
			verdict = "FAIL: " + err.Error()
		}
		hh.logf("chaos %s seed=%d: %d jobs done, %s", chaosCells[ci].name, seed, done, verdict)
		row := []string{chaosCells[ci].name, fmt.Sprint(seed)}
		for _, n := range []int64{int64(done), int64(aborted), f.Sent, f.Dropped + f.PartitionDrops, f.Duplicated,
			st.OfferTimeouts, st.WatchdogExpiries, st.Requeues} {
			row = append(row, fmt.Sprint(n))
		}
		return append(row, verdict)
	})
	tab := &metrics.Table{
		Title: "per run: jobs, frames judged and faulted, recovery counters, oracle verdict",
		Header: []string{"cell", "seed", "jobs done", "aborted", "frames", "dropped", "duplicated",
			"offer timeouts", "watchdog", "requeues", "check"},
	}
	for _, perSeed := range runs {
		for _, row := range perSeed {
			tab.Add(row...)
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"the virtual cluster is 3 schedulers and 8 two-slot workers replaying the 12-job parity workload, whatever -scale says; frames counts every send but Hello and JobComplete, dropped includes partition cuts",
		"check is live.VirtualCluster.Check: every job done, exactly-once unlocks, no silent demand, no leak beyond killed reports, replies paired with answerable offers, nothing left at quiescence")
	return res
}
