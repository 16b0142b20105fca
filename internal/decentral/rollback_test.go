package decentral

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// TestRollbackNotCountedAsOffer forces a copy race — the task finishes
// while a speculative accept is still in flight — and pins the counter
// split: rollbacks are recorded in Rollbacks, not Offers.
//
// The race is built from the push path, not hoped for. Four single-slot
// workers and probe ratio 4, so every probe wave reaches every worker;
// message latency is large (0.25s), the straggler's original runs 5s and
// speculative copies are nearly instant (20ms). The straggler lands on
// worker 0 at 0.75s; the other three take the second job's tasks at
// 1.25s, which run 0.5s, 0.6s and 0.7s. The straggler ripens at 1.0s,
// the next scan announces it, and its probes reach every worker at 1.35s
// — all busy, so the reservations wait. The slots free at 1.75s, 1.85s
// and 1.95s and each worker serves its reservation at once: the offers
// reach the scheduler at 2.0s, 2.1s and 2.2s. The first takes the want;
// its accept lands at 2.25s and the copy finishes at 2.27s. The other
// two arrive inside that accept's flight, when the straggler still shows
// one placed copy, so the scheduler hands it out again as a victim each
// time — and those accepts arrive at 2.35s and 2.45s at a done task: two
// placement-failed rollbacks.
//
// The pinned invariant is the message ledger: every probe is one
// message, every offer is one message plus exactly one reply, and every
// rollback is one message. Under the old counting (rollbacks bumped
// Offers) the ledger is off by exactly the rollback count, so this test
// fails whenever a race occurs; under the fix it balances. No step
// of the script depends on a random draw (a probe wave of four over four
// workers is all of them), so one seed is the whole test.
func TestRollbackNotCountedAsOffer(t *testing.T) {
	eng := simulator.New(1)
	ms := cluster.NewMachines(4, 1)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	sys := New(eng, exec, Config{
		Mode:          ModeHopper,
		NumSchedulers: 1,
		MsgLatency:    0.25,
		CheckInterval: 0.1,
	})
	const straggler, short = cluster.JobID(0), cluster.JobID(1)
	exec.DurationOverride = func(task *cluster.Task, spec bool) float64 {
		switch {
		case spec:
			return 0.02
		case task.Job.ID == short:
			return 0.5 + 0.1*float64(task.Index)
		}
		return 5
	}
	runAll(t, eng, sys, []*cluster.Job{
		mkJob(straggler, 1, 1.0, 0),
		mkJob(short, 3, 1.0, 0.05),
	})

	if sys.Rollbacks != 2 {
		t.Fatalf("%d rollbacks, want the two scripted copy races (copies started %d, speculative %d)",
			sys.Rollbacks, exec.CopiesStarted, exec.SpeculativeCopies)
	}
	if got, want := sys.Messages, sys.Probes+2*sys.Offers+sys.Rollbacks; got != want {
		t.Fatalf("message ledger off by %d: Messages=%d, Probes=%d + 2*Offers=%d + Rollbacks=%d = %d — rollbacks are being counted as offers",
			got-want, got, sys.Probes, 2*sys.Offers, sys.Rollbacks, want)
	}
	// A rollback still in flight when its job completes shows up as an
	// occupancy leak (the job's books close before the decrement
	// lands). With this test's quarter-second latency that timing is
	// expected; leaks beyond the rollback count would be a real bug.
	if sys.OccupancyLeaks > sys.Rollbacks {
		t.Fatalf("%d occupancy leaks exceed %d rollbacks", sys.OccupancyLeaks, sys.Rollbacks)
	}
}
