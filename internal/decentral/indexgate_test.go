package decentral

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// The victim index is on exactly where it is exact-equivalent to the
// scan (speculation/victimindex.go): a Hopper-family mode, MaxCopies 2,
// noise-free estimates, no churn (a churn driver with no leave rate is
// no churn). Nothing else — no flag, no engine property — selects it.
func TestVictimIndexGate(t *testing.T) {
	noisy := speculation.Config{EstimateNoise: 0.2}
	cases := []struct {
		name  string
		cfg   Config
		churn *ChurnConfig // non-nil: passed to EnableChurn
		want  bool
	}{
		{"Hopper", Config{Mode: ModeHopper}, nil, true},
		{"LoadCache", Config{Mode: ModeLoadCache}, nil, true},
		{"LoadCache-reprobe", Config{Mode: ModeLoadCache, ReprobeInterval: 1}, nil, true},
		{"Sparrow", Config{Mode: ModeSparrow}, nil, false},
		{"Sparrow-SRPT", Config{Mode: ModeSparrowSRPT}, nil, false},
		{"Hopper-MaxCopies3", Config{Mode: ModeHopper, Spec: speculation.Config{MaxCopies: 3}}, nil, false},
		{"Hopper-noise", Config{Mode: ModeHopper, Spec: noisy}, nil, false},
		{"LoadCache-noise", Config{Mode: ModeLoadCache, Spec: noisy}, nil, false},
		{"Hopper-churn", Config{Mode: ModeHopper}, &ChurnConfig{LeaveEvery: 1}, false},
		{"LoadCache-churn", Config{Mode: ModeLoadCache}, &ChurnConfig{LeaveEvery: 1}, false},
		{"Hopper-churn-rate0", Config{Mode: ModeHopper}, &ChurnConfig{}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := simulator.New(1)
			exec := cluster.NewExecutor(eng, cluster.NewMachines(8, 2), cluster.DefaultExecModel())
			sys := New(eng, exec, tc.cfg)
			if tc.churn != nil {
				if !sys.IndexEnabled() {
					t.Fatal("index off before EnableChurn: the case tests nothing")
				}
				sys.EnableChurn(*tc.churn)
			}
			if got := sys.IndexEnabled(); got != tc.want {
				t.Fatalf("IndexEnabled() = %t, want %t", got, tc.want)
			}
		})
	}
}

// loggedRun replays one fixed workload, churned when churn is non-nil,
// and returns its placement log and counters. forceScan puts the monitors
// on the scan by hand first (before churn is armed).
func loggedRun(t *testing.T, forceScan bool, churn *ChurnConfig) (log []string, counters string) {
	eng, exec, sys := mkSystem(ModeHopper, 16, 2, 11)
	if forceScan {
		for _, sc := range sys.scheds {
			sc.core.DisableVictimIndex()
		}
	}
	if churn != nil {
		sys.EnableChurn(*churn)
	} else if sys.IndexEnabled() == forceScan {
		t.Fatalf("IndexEnabled() = %t with forceScan = %t", sys.IndexEnabled(), forceScan)
	}
	sys.OnPlace = func(tk *cluster.Task, m cluster.MachineID, spec bool) {
		log = append(log, fmt.Sprintf("%.9f %s m%d spec=%t", eng.Now(), tk.ID(), m, spec))
	}
	var jobs []*cluster.Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, mkJob(cluster.JobID(i), 6+i, 2.0, float64(i)*0.6))
	}
	runAll(t, eng, sys, jobs)
	if (churn != nil && sys.CopiesLost == 0) || exec.SpeculativeCopies == 0 {
		t.Fatalf("run lost %d copies and speculated %d times; it needs both to test anything",
			sys.CopiesLost, exec.SpeculativeCopies)
	}
	if churn == nil && sys.IndexEnabled() == forceScan {
		t.Fatalf("IndexEnabled() = %t at the end of the run with forceScan = %t", sys.IndexEnabled(), forceScan)
	}
	counters = fmt.Sprintf("end=%.9f fired=%d msgs=%d probes=%d offers=%d rollbacks=%d copies=%d spec=%d killed=%d left=%d lost=%d requeues=%d",
		eng.Now(), eng.Fired, sys.Messages, sys.Probes, sys.Offers, sys.Rollbacks,
		exec.CopiesStarted, exec.SpeculativeCopies, exec.CopiesKilled,
		sys.MachinesLeft, sys.CopiesLost, sys.Requeues)
	return log, counters
}

// Churn kills copies outside task completion, where the index is not
// exact, so EnableChurn must leave an index-eligible config on the scan:
// the same churned run with the scan forced by hand has to place the same
// copies at the same instants. With the index left on under churn the
// two runs part ways within the first few leaves.
func TestChurnRunsOnTheScan(t *testing.T) {
	churn := &ChurnConfig{LeaveEvery: 0.5, Downtime: 3.0, Seed: 5}
	log, counters := loggedRun(t, false, churn)
	scanLog, scanCounters := loggedRun(t, true, churn)
	sameRun(t, log, counters, scanLog, scanCounters)
}

// The index answers the scheduler core's three questions — the per-offer
// victim search and ScanSpec's candidates and ripe victims — and every
// probe ScanSpec sends draws from the shared RNG, so one answer out of
// the scan's order would move every later placement: the indexed run has
// to place the same copies at the same instants as the same run with the
// scan forced by hand.
func TestIndexedRunMatchesForcedScan(t *testing.T) {
	log, counters := loggedRun(t, false, nil)
	scanLog, scanCounters := loggedRun(t, true, nil)
	sameRun(t, log, counters, scanLog, scanCounters)
}

func sameRun(t *testing.T, log []string, counters string, scanLog []string, scanCounters string) {
	t.Helper()
	if counters != scanCounters {
		t.Errorf("counters differ from the forced-scan run:\n  got:  %s\n  scan: %s", counters, scanCounters)
	}
	if !reflect.DeepEqual(log, scanLog) {
		for i := 0; i < len(log) && i < len(scanLog); i++ {
			if log[i] != scanLog[i] {
				t.Fatalf("placement %d differs from the forced-scan run:\n  got:  %s\n  scan: %s", i, log[i], scanLog[i])
			}
		}
		t.Fatalf("placement logs differ in length: %d vs %d (forced scan)", len(log), len(scanLog))
	}
}
