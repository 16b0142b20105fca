package experiments

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/stats"
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
	spec := Prototype200(1.5)
	// Bing DAGs are the bushiest profile (fan-in joins over parallel
	// chains) and Sparkify makes them communication-bound, maximizing
	// transfer-gated unlock traffic.
	prof := workload.Sparkify(workload.Bing())

	modes := []decentral.Mode{decentral.ModeHopper, decentral.ModeSparrow, decentral.ModeSparrowSRPT}

	type counters struct {
		avg                  float64
		probes, offers, msgs int64
		rollbacks            int64
		rounds, placed       int64
		dupWakeups, dupTasks int64
		occLeaks             int64
	}
	rows := seedMatrix(h, len(modes), 3100, 43, func(hh Harness, m, _ int, seed int64) counters {
		tr := GenTrace(prof, hh.jobs(900), 0.85, spec, seed)
		r := RunTrace(decentralKind(decentral.Config{
			Mode: modes[m], CheckInterval: 0.1,
		}), spec, tr.Jobs, seed+1)
		return counters{
			avg:    r.Run.AvgCompletion(),
			probes: r.Probes, offers: r.Offers, msgs: r.Messages,
			rollbacks: r.Rollbacks,
			rounds:    r.Rounds, placed: r.RoundsPlaced,
			dupWakeups: r.DoubleWakeups, dupTasks: r.DoubleWakeupTasks,
			occLeaks: r.OccLeaks,
		}
	})

	tab := &metrics.Table{
		Title:  "Protocol counters (median across seeds; Spark-Bing DAGs, util 85%)",
		Header: []string{"mode", "avg completion (s)", "probes", "offers", "messages", "rollbacks", "rounds", "placed", "dup wakeups", "dup tasks", "occ leaks"},
	}
	med := func(xs []int64) string {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		return fmt.Sprintf("%.0f", stats.Median(fs))
	}
	for mi, mode := range modes {
		var avg []float64
		var probes, offers, msgs, rollbacks, rounds, placed, dupW, dupT, leaks []int64
		for _, c := range rows[mi] {
			avg = append(avg, c.avg)
			probes = append(probes, c.probes)
			offers = append(offers, c.offers)
			msgs = append(msgs, c.msgs)
			rollbacks = append(rollbacks, c.rollbacks)
			rounds = append(rounds, c.rounds)
			placed = append(placed, c.placed)
			dupW = append(dupW, c.dupWakeups)
			dupT = append(dupT, c.dupTasks)
			leaks = append(leaks, c.occLeaks)
		}
		tab.Add(mode.String(), fmt.Sprintf("%.1f", stats.Median(avg)),
			med(probes), med(offers), med(msgs), med(rollbacks), med(rounds), med(placed),
			med(dupW), med(dupT), med(leaks))
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"dup wakeups/tasks must be zero: phase wakeup delivery is exactly-once (DESIGN.md section 6)")
	return res
}
