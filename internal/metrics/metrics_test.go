package metrics

import (
	"math"
	"strings"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

func run(completions ...float64) Run {
	var r Run
	for i, c := range completions {
		r.Jobs = append(r.Jobs, JobResult{ID: cluster.JobID(i), Completion: c, Tasks: (i + 1) * 40})
	}
	return r
}

func TestAvgCompletion(t *testing.T) {
	r := run(2, 4, 6)
	if got := r.AvgCompletion(); got != 4 {
		t.Fatalf("avg = %v", got)
	}
	var empty Run
	if !math.IsNaN(empty.AvgCompletion()) {
		t.Fatal("empty run should be NaN")
	}
}

func TestAvgCompletionWhere(t *testing.T) {
	r := run(2, 4, 6)
	got := r.AvgCompletionWhere(func(j JobResult) bool { return j.Tasks > 50 })
	if got != 5 {
		t.Fatalf("filtered avg = %v", got)
	}
	if !math.IsNaN(r.AvgCompletionWhere(func(JobResult) bool { return false })) {
		t.Fatal("no matches should be NaN")
	}
}

func TestGain(t *testing.T) {
	if got := Gain(10, 5); got != 50 {
		t.Fatalf("Gain = %v", got)
	}
	if got := Gain(10, 12); got != -20 {
		t.Fatalf("negative gain = %v", got)
	}
	if got := Gain(0, 5); got != 0 {
		t.Fatalf("zero baseline = %v", got)
	}
}

func TestPerJobGainsMatchesByID(t *testing.T) {
	base := run(10, 20, 40)
	imp := run(5, 30, 40)
	gains := PerJobGains(base, imp)
	// Sorted: job0 +50, job1 -50, job2 0.
	want := []float64{-50, 0, 50}
	if len(gains) != 3 {
		t.Fatalf("gains = %v", gains)
	}
	for i := range want {
		if math.Abs(gains[i]-want[i]) > 1e-9 {
			t.Fatalf("gains = %v, want %v", gains, want)
		}
	}
}

func TestSlowdowns(t *testing.T) {
	sd := Slowdowns([]float64{50, 20, -10, -30, 0})
	if math.Abs(sd.FractionSlowed-0.4) > 1e-9 {
		t.Errorf("fraction = %v", sd.FractionSlowed)
	}
	if math.Abs(sd.AvgIncrease-20) > 1e-9 {
		t.Errorf("avg = %v", sd.AvgIncrease)
	}
	if sd.WorstIncrease != 30 {
		t.Errorf("worst = %v", sd.WorstIncrease)
	}
	empty := Slowdowns(nil)
	if empty.FractionSlowed != 0 || empty.AvgIncrease != 0 {
		t.Error("empty slowdowns should be zero")
	}
}

func TestCollectPanicsOnUnfinished(t *testing.T) {
	ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: []*cluster.Task{{}}}
	j := cluster.NewJob(1, "", 0, []*cluster.Phase{ph})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unfinished job")
		}
	}()
	Collect([]*cluster.Job{j})
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tab.AddF("alpha", 1.25)
	tab.AddF("beta", 42)
	tab.AddF("gamma", math.NaN())
	out := tab.String()
	for _, want := range []string{"demo", "name", "alpha", "1.2", "42", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and first row start at the same offset.
	if strings.Index(lines[1], "value") != strings.Index(lines[3], "1.2") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestGainBetweenAndWhere(t *testing.T) {
	base := run(10, 10, 10)
	imp := run(5, 5, 10)
	if got := GainBetween(base, imp); math.Abs(got-33.333) > 0.01 {
		t.Fatalf("GainBetween = %v", got)
	}
	got := GainWhere(base, imp, func(j JobResult) bool { return j.ID == 0 })
	if got != 50 {
		t.Fatalf("GainWhere = %v", got)
	}
}
