package workload

import (
	"math"
	"reflect"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

func genCfg(prof Profile, n int, util float64, seed int64) Config {
	return Config{
		Profile:           prof,
		NumJobs:           n,
		TargetUtilization: util,
		TotalSlots:        3200,
		NumMachines:       200,
		Seed:              seed,
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	tr := Generate(genCfg(Facebook(), 500, 0.7, 1))
	if len(tr.Jobs) != 500 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	prevArrival := -1.0
	for _, j := range tr.Jobs {
		if j.Arrival <= prevArrival {
			t.Fatalf("arrivals not strictly increasing at job %d", j.ID)
		}
		prevArrival = j.Arrival
		if len(j.Phases) < 1 || len(j.Phases) > 8 {
			t.Fatalf("job %d has %d phases", j.ID, len(j.Phases))
		}
		for pi, p := range j.Phases {
			if len(p.Tasks) < 1 {
				t.Fatalf("job %d phase %d empty", j.ID, pi)
			}
			if p.MeanTaskDuration <= 0 {
				t.Fatalf("job %d phase %d non-positive duration", j.ID, pi)
			}
			for _, d := range p.Deps {
				if d < 0 || d >= pi {
					t.Fatalf("job %d phase %d bad dep %d", j.ID, pi, d)
				}
			}
			if pi > 0 && len(p.Deps) > 0 && p.TransferWork < 0 {
				t.Fatalf("negative transfer work")
			}
		}
		// Input phases have replica assignments within machine range.
		for _, task := range j.Phases[0].Tasks {
			if len(task.Replicas) != 3 {
				t.Fatalf("job %d input task has %d replicas", j.ID, len(task.Replicas))
			}
			for _, r := range task.Replicas {
				if r < 0 || int(r) >= 200 {
					t.Fatalf("replica %d out of range", r)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(genCfg(Facebook(), 200, 0.7, 9))
	b := Generate(genCfg(Facebook(), 200, 0.7, 9))
	if a.TotalWork != b.TotalWork || a.Horizon != b.Horizon {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival ||
			a.Jobs[i].TotalTasks() != b.Jobs[i].TotalTasks() {
			t.Fatalf("job %d differs between same-seed traces", i)
		}
	}
}

func TestOfferedLoadNearTarget(t *testing.T) {
	// With many burst cycles the realized offered load should be within
	// ~35% of the target (heavy-tailed job sizes make it noisy).
	for _, util := range []float64{0.6, 0.9} {
		tr := Generate(genCfg(Facebook(), 5000, util, 4))
		if tr.OfferedLoad < util*0.5 || tr.OfferedLoad > util*1.6 {
			t.Errorf("util=%v: offered load %v too far off", util, tr.OfferedLoad)
		}
	}
}

func TestHigherUtilizationCompressesArrivals(t *testing.T) {
	lo := Generate(genCfg(Facebook(), 2000, 0.6, 5))
	hi := Generate(genCfg(Facebook(), 2000, 0.9, 5))
	if hi.Horizon >= lo.Horizon {
		t.Fatalf("90%% util horizon (%v) should be shorter than 60%% (%v)", hi.Horizon, lo.Horizon)
	}
}

func TestJobSizesHeavyTailed(t *testing.T) {
	tr := Generate(genCfg(Facebook(), 4000, 0.7, 6))
	var small, large, total int
	for _, j := range tr.Jobs {
		n := j.TotalTasks()
		total += n
		switch {
		case n <= 50:
			small++
		case n > 500:
			large++
		}
	}
	if small < len(tr.Jobs)/2 {
		t.Errorf("only %d/%d small jobs; expected majority", small, len(tr.Jobs))
	}
	if large == 0 {
		t.Error("no >500-task jobs generated; tail too light")
	}
	// Most *work* should be in big jobs despite their rarity.
	var largeWork float64
	for _, j := range tr.Jobs {
		if j.TotalTasks() > 500 {
			for _, p := range j.Phases {
				largeWork += float64(len(p.Tasks)) * p.MeanTaskDuration
			}
		}
	}
	if largeWork/tr.TotalWork < 0.2 {
		t.Errorf("large jobs carry only %.0f%% of work", largeWork/tr.TotalWork*100)
	}
}

func TestRecurringFamiliesShareStructure(t *testing.T) {
	tr := Generate(genCfg(Facebook(), 3000, 0.7, 8))
	fams := map[string][]*cluster.Job{}
	for _, j := range tr.Jobs {
		if j.Name != "" {
			fams[j.Name] = append(fams[j.Name], j)
		}
	}
	if len(fams) == 0 {
		t.Fatal("no recurring families generated")
	}
	checked := 0
	for name, jobs := range fams {
		if len(jobs) < 2 {
			continue
		}
		checked++
		first := jobs[0]
		for _, j := range jobs[1:] {
			if len(j.Phases) != len(first.Phases) {
				t.Fatalf("family %s members have different DAG lengths", name)
			}
			// Sizes similar (within the +/-10% jitter plus rounding).
			a, b := float64(first.TotalTasks()), float64(j.TotalTasks())
			if math.Abs(a-b)/math.Max(a, b) > 0.35 {
				t.Fatalf("family %s sizes diverge: %v vs %v", name, a, b)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no family had two members")
	}
}

func TestSparkifyShortensTasksRaisesTransfer(t *testing.T) {
	base := Facebook()
	sp := Sparkify(base)
	if sp.MeanTaskDur >= base.MeanTaskDur {
		t.Error("Sparkify should shorten tasks")
	}
	if sp.TransferRatio <= base.TransferRatio {
		t.Error("Sparkify should raise relative transfer work")
	}
}

// TestProfileByName: the four command-line profile names resolve to the
// profiles the constructors build, and nothing else resolves.
func TestProfileByName(t *testing.T) {
	for name, want := range map[string]Profile{
		"facebook": Facebook(), "bing": Bing(),
		"facebook-spark": Sparkify(Facebook()), "bing-spark": Sparkify(Bing()),
	} {
		got, ok := ProfileByName(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ProfileByName(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	if _, ok := ProfileByName("spark"); ok {
		t.Error("ProfileByName found an unknown profile")
	}
}

func TestSizeBinBoundaries(t *testing.T) {
	// The paper's bins are (<=50, 51-150, 151-500, >500]; each boundary
	// pair pins which side the edge value lands on.
	cases := []struct {
		name  string
		tasks int
		want  string
	}{
		{"zero tasks", 0, "<50"},
		{"single task", 1, "<50"},
		{"last of first bin", 50, "<50"},
		{"first of second bin", 51, "51-150"},
		{"last of second bin", 150, "51-150"},
		{"first of third bin", 151, "151-500"},
		{"last of third bin", 500, "151-500"},
		{"first of fourth bin", 501, ">500"},
		{"huge job", 1 << 20, ">500"},
	}
	listed := map[string]bool{}
	for _, b := range SizeBins() {
		listed[b] = true
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := SizeBin(tc.tasks)
			if got != tc.want {
				t.Errorf("SizeBin(%d) = %q, want %q", tc.tasks, got, tc.want)
			}
			if !listed[got] {
				t.Errorf("SizeBin(%d) = %q not listed in SizeBins()", tc.tasks, got)
			}
		})
	}
	if len(SizeBins()) != 4 {
		t.Error("SizeBins should list 4 bins")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero jobs")
		}
	}()
	Generate(Config{NumJobs: 0, TotalSlots: 1, NumMachines: 1, TargetUtilization: 0.5})
}

func TestBushyJobsHaveFanIn(t *testing.T) {
	prof := Facebook()
	prof.BushyFraction = 1.0                   // force bushy for every eligible job
	prof.DAGLenWeights = []float64{0, 0, 0, 1} // 4 phases
	tr := Generate(genCfg(prof, 200, 0.7, 10))
	bushy := 0
	for _, j := range tr.Jobs {
		for _, p := range j.Phases {
			if len(p.Deps) >= 2 {
				bushy++
				break
			}
		}
	}
	if bushy == 0 {
		t.Fatal("no fan-in phases generated with BushyFraction=1")
	}
}
