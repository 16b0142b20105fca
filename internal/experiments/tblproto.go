package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/workload"
)

func init() {
	register("tblproto", "Decentralized protocol overhead counters (probes, offers, rounds, duplicate wakeups)", runTblProto)
}

// runTblProto renders the protocol-overhead counter table for the three
// decentralized systems on a DAG-heavy, communication-bound workload —
// the regime in which transfer-gated phase unlocks interleave with
// sibling-phase completions. It makes the Section 5 message overhead
// directly comparable across modes and, critically, surfaces duplicate
// phase wakeups: the exactly-once unlock lifecycle must hold these at
// zero, and any regression shows up as phantom fresh demand (dup tasks)
// and inflated probe traffic before it distorts a completion-time
// figure.
func runTblProto(h Harness) *Result {
	res := &Result{ID: "tblproto", Title: "Decentralized protocol overhead counters"}
	spec := Prototype200()
	// Bing DAGs are the bushiest profile (fan-in joins over parallel
	// chains) and Sparkify makes them communication-bound, maximizing
	// transfer-gated unlock traffic.
	prof := workload.Sparkify(workload.Bing())

	modes := []decentral.Mode{decentral.ModeHopper, decentral.ModeSparrow, decentral.ModeSparrowSRPT}

	med := seedMedians(h, len(modes), 3100, 43, func(hh Harness, m, _ int, seed int64) []float64 {
		tr := GenTrace(prof, hh.jobs(900), 0.85, spec, seed)
		r := RunTrace(decentralKind(decentral.Config{
			Mode: modes[m], CheckInterval: 0.1,
		}), spec, tr.Jobs, seed+1)
		row := []float64{r.Run.AvgCompletion()}
		for _, n := range []int64{r.Probes, r.Offers, r.Messages, r.Rollbacks, r.RoundsStarted, r.RoundsPlaced,
			r.DoubleWakeups, r.DoubleWakeupTasks, r.OccupancyLeaks} {
			row = append(row, float64(n))
		}
		return row
	})

	tab := &metrics.Table{
		Title:  "Protocol counters (median across seeds; Spark-Bing DAGs, util 85%)",
		Header: []string{"mode", "avg completion (s)", "probes", "offers", "messages", "rollbacks", "rounds", "placed", "dup wakeups", "dup tasks", "occ leaks"},
	}
	for mi, mode := range modes {
		row := []string{mode.String(), fmt.Sprintf("%.1f", med[mi][0])}
		for _, n := range med[mi][1:] {
			row = append(row, fmt.Sprintf("%.0f", n))
		}
		tab.Add(row...)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"dup wakeups/tasks must be zero: phase wakeup delivery is exactly-once (DESIGN.md section 6)")
	return res
}
