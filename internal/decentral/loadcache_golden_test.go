package decentral

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

var updateLCGolden = flag.Bool("update", false, "rewrite testdata/loadcache_golden.txt from the current implementation")

const lcGoldenPath = "testdata/loadcache_golden.txt"

// lcGoldenClasses is the fixed three-class mix the load-cache golden is
// pinned on: the same shape as the experiments hetero scenario's
// 3-class mix, scaled down so the run stays fast.
var lcGoldenClasses = []cluster.MachineClass{
	{Name: "small", Count: 25, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
	{Name: "standard", Count: 15, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
	{Name: "big", Count: 10, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
}

// renderLoadCacheRun runs one fixed load-cached hetero scenario and
// renders its full decision outcome: per-job completion times plus the
// traffic counters. Anything that perturbs probe aiming, cache
// observation order, worker pick rules, or the RNG draw sequence shows
// up here.
func renderLoadCacheRun(seed int64) string {
	prof := workload.Facebook()
	prof.JobSizeCap = 60
	totalSlots := 0
	for _, c := range lcGoldenClasses {
		totalSlots += c.Count * c.Slots
	}
	tr := workload.Generate(workload.Config{
		Profile: prof, NumJobs: 18, TargetUtilization: 0.5,
		TotalSlots: totalSlots, NumMachines: 50, Seed: seed,
	})
	stampDemands(tr.Jobs, heteroDemands)

	eng := simulator.New(seed + 1)
	ms := cluster.NewMachinesClassed(lcGoldenClasses)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	sys := New(eng, exec, Config{Mode: ModeLoadCache, ReprobeInterval: 1})
	for _, j := range tr.Jobs {
		j := j
		eng.At(j.Arrival, func() { sys.Arrive(j) })
	}
	eng.Run()

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d jobs=%d\n", seed, len(tr.Jobs))
	done := append([]*cluster.Job(nil), sys.Completed()...)
	sort.Slice(done, func(i, k int) bool { return done[i].ID < done[k].ID })
	for _, j := range done {
		fmt.Fprintf(&sb, "job %d arrive=%.3f done=%.3f\n", j.ID, float64(j.Arrival), float64(j.DoneAt))
	}
	fmt.Fprintf(&sb, "probes=%d offers=%d messages=%d doubleWakeups=%d occupancyLeaks=%d\n",
		sys.Probes, sys.Offers, sys.Messages, sys.DoubleWakeups, sys.OccupancyLeaks)
	return sb.String()
}

// TestLoadCacheGolden pins the load-cached decentralized mode's exact
// decision trajectory on a fixed heterogeneous cluster, the same
// identity contract the dispatch golden holds the paper modes to. The
// paper modes' golden cannot cover ModeLoadCache (it is not a paper
// figure), so the mode carries its own reference here.
func TestLoadCacheGolden(t *testing.T) {
	var sb strings.Builder
	for _, seed := range []int64{4300, 4301} {
		sb.WriteString(renderLoadCacheRun(seed))
	}
	got := sb.String()
	if *updateLCGolden {
		if err := os.MkdirAll(filepath.Dir(lcGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lcGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", lcGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(lcGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("load-cache trajectory diverged from the checked-in reference.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
