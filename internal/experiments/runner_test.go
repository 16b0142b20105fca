package experiments

import (
	"math"
	"reflect"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// smokeSpec is a small cluster for fast end-to-end checks.
func smokeSpec() ClusterSpec {
	em := cluster.DefaultExecModel()
	return ClusterSpec{Machines: 20, SlotsPerMachine: 4, Exec: em}
}

func smokeTrace(t *testing.T, spec ClusterSpec) *workload.Trace {
	t.Helper()
	prof := workload.Facebook()
	prof.JobSizeCap = 200
	return GenTrace(prof, 60, 0.7, spec, 42)
}

func TestRunTraceCentralizedEngines(t *testing.T) {
	spec := smokeSpec()
	tr := smokeTrace(t, spec)
	kinds := map[string]SchedulerKind{
		"hopper": centralHopper(scheduler.Config{}),
		"srpt":   centralSRPT(scheduler.Config{}),
		"budgeted": func(eng *simulator.Engine, exec *cluster.Executor) Arriver {
			return scheduler.NewBudgeted(eng, exec, scheduler.Config{SpecBudget: 8})
		},
	}
	for name, kind := range kinds {
		name, kind := name, kind
		t.Run(name, func(t *testing.T) {
			res := RunTrace(kind, spec, CloneJobs(tr.Jobs), 7)
			if len(res.Run.Jobs) != len(tr.Jobs) {
				t.Fatalf("finished %d jobs, want %d", len(res.Run.Jobs), len(tr.Jobs))
			}
			avg := res.Run.AvgCompletion()
			if avg <= 0 {
				t.Fatalf("average completion %v, want positive", avg)
			}
			t.Logf("%s: avg completion %.1fs, copies=%d spec=%d killed=%d",
				name, avg, res.Exec.CopiesStarted, res.Exec.SpeculativeCopies, res.Exec.CopiesKilled)
		})
	}
}

func TestRunTraceDecentralizedModes(t *testing.T) {
	spec := smokeSpec()
	prof := workload.Sparkify(workload.Facebook())
	prof.JobSizeCap = 150
	tr := GenTrace(prof, 80, 0.7, spec, 11)
	for _, mode := range []decentral.Mode{decentral.ModeHopper, decentral.ModeSparrow, decentral.ModeSparrowSRPT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			kind := decentralKind(decentral.Config{Mode: mode, NumSchedulers: 4, CheckInterval: 0.1})
			res := RunTrace(kind, spec, CloneJobs(tr.Jobs), 3)
			if len(res.Run.Jobs) != len(tr.Jobs) {
				t.Fatalf("finished %d jobs, want %d", len(res.Run.Jobs), len(tr.Jobs))
			}
			if res.Messages == 0 {
				t.Fatal("no protocol messages counted")
			}
			t.Logf("%s: avg completion %.2fs, messages=%d, local=%.0f%%",
				mode, res.Run.AvgCompletion(), res.Messages, 100*res.LocalFraction)
		})
	}
}

// TestMedians pins the one reduction every seed-swept table goes
// through: each column's median over seeds, for odd and even seed
// counts, with a column that is NaN in every seed (a bin no job fell
// into) reaching the table as "-". Every column has a distinct median,
// so a reduction that swaps or transposes columns fails.
func TestMedians(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		perSeed [][]float64
		want    []string
	}{
		{"one seed", [][]float64{{4, 1, nan, 2}}, []string{"4.0", "1.0", "-", "2.0"}},
		{"odd seeds", [][]float64{{5, 10, nan, 0.25}, {1, 30, nan, 0.5}, {3, 20, nan, 0.75}},
			[]string{"3.0", "20.0", "-", "0.5"}},
		{"even seeds", [][]float64{{1, 40, nan, 7}, {2, 10, nan, 8}},
			[]string{"1.5", "25.0", "-", "7.5"}},
	} {
		got := medians(tc.perSeed)
		tab := &metrics.Table{}
		var cells []interface{}
		for _, v := range got {
			cells = append(cells, v)
		}
		tab.AddF(cells...)
		if !reflect.DeepEqual(tab.Rows[0], tc.want) {
			t.Errorf("%s: medians %v render as %q, want %q", tc.name, got, tab.Rows[0], tc.want)
		}
	}
}
