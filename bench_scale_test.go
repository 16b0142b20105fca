// Scale benchmark suite smoke coverage: the BENCH_*.json trajectory
// artifact must stay well-formed and the checked-in baseline must keep
// satisfying the overhaul's acceptance ratios (≥2x ns/decision, ≥5x
// allocs/decision on the central dispatch scenarios). The heavy
// measurement itself lives in `hopper-sim -bench-scale`; see DESIGN.md
// section 6.
package hopper

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hopper-sim/hopper/internal/experiments"
)

// TestScaleBenchSmokeReportWellFormed runs the smoke matrix end to end
// and checks every field a downstream consumer (CI gate, trajectory
// plots) relies on.
func TestScaleBenchSmokeReportWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement; skipped with -short")
	}
	rep := experiments.RunScaleBench(true, nil)
	if rep.Schema != experiments.BenchSchema || rep.Mode != "smoke" {
		t.Fatalf("schema/mode = %q/%q", rep.Schema, rep.Mode)
	}
	if len(rep.Scenarios) != len(experiments.ScaleScenarios(true)) {
		t.Fatalf("got %d scenarios, want %d", len(rep.Scenarios), len(experiments.ScaleScenarios(true)))
	}
	for _, s := range rep.Scenarios {
		if s.Optimized.Decisions <= 0 || s.Optimized.Events == 0 {
			t.Errorf("%s: empty measurement %+v", s.Name, s.Optimized)
		}
		if s.Optimized.NsPerDecision <= 0 || s.Optimized.EventsPerSec <= 0 {
			t.Errorf("%s: missing derived metrics %+v", s.Name, s.Optimized)
		}
		if !strings.HasPrefix(s.Kind, "decentral-") {
			if s.Reference == nil || s.SpeedupNsPerDecision == 0 || s.AllocReduction == 0 {
				t.Errorf("%s: central scenario missing reference column", s.Name)
			}
		}
	}

	// Round-trip through JSON the way -bench-out/-bench-check do.
	f, err := os.CreateTemp(t.TempDir(), "bench*.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := rep.WriteJSON(f.Name()); err != nil {
		t.Fatal(err)
	}
	back, err := experiments.LoadBenchReport(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckAgainst(back, 0.2); err != nil {
		t.Fatalf("self-comparison must pass: %v", err)
	}
}

// TestCheckedInBenchBaseline validates every committed trajectory file
// (the series is the artifact — old files stay): parseable, full-scale,
// and holding the acceptance ratios the overhaul was merged on.
func TestCheckedInBenchBaseline(t *testing.T) {
	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_PR*.json trajectory files found (err=%v)", err)
	}
	for _, file := range files {
		file := file
		t.Run(file, func(t *testing.T) {
			rep, err := experiments.LoadBenchReport(file)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mode != "full" {
				t.Fatalf("baseline mode %q, want full (10k machines)", rep.Mode)
			}
			tenK := 0
			for _, s := range rep.Scenarios {
				if s.Reference == nil {
					continue
				}
				if s.SpeedupNsPerDecision <= 1 || s.AllocReduction <= 1 {
					t.Errorf("%s: reference not slower than optimized (%.2fx ns, %.1fx allocs)",
						s.Name, s.SpeedupNsPerDecision, s.AllocReduction)
				}
				if s.Machines < 10000 {
					continue
				}
				tenK++
				// The overhaul's acceptance bars apply at the 10k tier.
				if s.SpeedupNsPerDecision < 2 {
					t.Errorf("%s: speedup %.2fx below the 2x acceptance bar", s.Name, s.SpeedupNsPerDecision)
				}
				if s.AllocReduction < 5 {
					t.Errorf("%s: alloc reduction %.1fx below the 5x acceptance bar", s.Name, s.AllocReduction)
				}
			}
			if tenK == 0 {
				t.Fatal("baseline has no reference-compared 10k-machine scenarios")
			}
			// The file must stay valid JSON for external tooling even if
			// the struct grows fields.
			raw, _ := os.ReadFile(file)
			var generic map[string]any
			if err := json.Unmarshal(raw, &generic); err != nil {
				t.Fatalf("baseline is not generic JSON: %v", err)
			}
		})
	}
}

// TestTrajectoryIncludes100kTier pins the PR 5 convention: from
// BENCH_PR5.json on, the full-tier trajectory carries the 100k-machine
// decentralized-Hopper scenario (two orders of magnitude past the
// paper's testbed). At least one checked-in file must have it.
func TestTrajectoryIncludes100kTier(t *testing.T) {
	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_PR*.json trajectory files found (err=%v)", err)
	}
	for _, file := range files {
		rep, err := experiments.LoadBenchReport(file)
		if err != nil {
			continue // the per-file test reports parse failures
		}
		for _, s := range rep.Scenarios {
			if s.Kind == "decentral-hopper" && s.Machines >= 100000 && s.Optimized.Decisions > 0 {
				return
			}
		}
	}
	t.Fatal("no trajectory file carries the 100k-machine decentral-hopper tier (BENCH_PR5+ convention)")
}

// TestTrajectoryIncludesHeteroTier pins the PR 9 convention: from
// BENCH_PR9.json on, the full-tier trajectory carries the 10k-machine
// heterogeneous tier — the load-cached decentralized mode on the
// three-class mix with the hetero demand split — so the cost of the
// heterogeneity path (class-aware counters, demand-filtered hand-out,
// capacity-aware probe aiming) is measured alongside the homogeneous
// 10k tier it rides next to. At least one checked-in file must have it.
func TestTrajectoryIncludesHeteroTier(t *testing.T) {
	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_PR*.json trajectory files found (err=%v)", err)
	}
	for _, file := range files {
		rep, err := experiments.LoadBenchReport(file)
		if err != nil {
			continue // the per-file test reports parse failures
		}
		for _, s := range rep.Scenarios {
			if s.Kind == "decentral-loadcache" && s.Hetero && s.Machines >= 10000 && s.Optimized.Decisions > 0 {
				return
			}
		}
	}
	t.Fatal("no trajectory file carries the 10k-machine decentral-loadcache hetero tier (BENCH_PR9+ convention)")
}

// TestTrajectoryIncludesLiveLatencyTier pins the PR 10 convention: from
// BENCH_PR10.json on, the full-tier trajectory carries the live-latency
// tier — open-loop p50/p99/p999 scheduling latency and transport
// batching counters from a thousand-worker in-process cluster on the
// batched transport and shared timer wheel. At least one checked-in
// file must have it, with a healthy run behind the numbers: jobs
// actually completed, none aborted, and nonzero latency quantiles.
func TestTrajectoryIncludesLiveLatencyTier(t *testing.T) {
	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_PR*.json trajectory files found (err=%v)", err)
	}
	for _, file := range files {
		rep, err := experiments.LoadBenchReport(file)
		if err != nil {
			continue // the per-file test reports parse failures
		}
		ll := rep.LiveLatency
		if ll == nil {
			continue
		}
		if ll.Workers < 1000 {
			t.Fatalf("%s: live-latency tier ran %d workers, want >= 1000", file, ll.Workers)
		}
		if ll.Completed <= 0 || ll.Aborted > 0 {
			t.Fatalf("%s: live-latency tier unhealthy: %d completed, %d aborted", file, ll.Completed, ll.Aborted)
		}
		if ll.PlaceP50Ms <= 0 || ll.PlaceP99Ms < ll.PlaceP50Ms {
			t.Fatalf("%s: degenerate placement quantiles p50=%.3f p99=%.3f", file, ll.PlaceP50Ms, ll.PlaceP99Ms)
		}
		if ll.FramesFlushed == 0 || ll.FramesPerFlush < 1 {
			t.Fatalf("%s: batching counters empty: %+v", file, ll)
		}
		return
	}
	t.Fatal("no trajectory file carries the live-latency tier (BENCH_PR10+ convention)")
}

// BenchmarkDispatchScaleSmoke tracks the smoke matrix under
// `go test -bench`, surfacing the central-Hopper per-decision metrics
// for quick local comparisons.
func BenchmarkDispatchScaleSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.RunScaleBench(true, nil)
		b.ReportMetric(rep.Scenarios[0].Optimized.NsPerDecision, "ns/decision")
		b.ReportMetric(rep.Scenarios[0].Optimized.AllocsPerDecision, "allocs/decision")
	}
}
