package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden the selected test checks from the current implementation")

// goldenHarness is the smoke-scale setting the dispatch identity contract
// is pinned at: every registered driver but the scenarios, two seeds.
// Small enough for CI, large enough that every engine exercises
// saturation, speculation races, and locality promotion.
var goldenHarness = Harness{Scale: 0.05, Seeds: 2, Workers: 0}

// scenarioHarness pins the robustness scenarios. Two seeds make every
// median the mean of two values.
var scenarioHarness = Harness{Scale: 0.3, Seeds: 2}

const (
	goldenPath         = "testdata/dispatch_golden.txt"
	scenarioGoldenPath = "testdata/scenario_golden.txt"
)

// scenarioIDs are the robustness scenarios: drivers that exercise
// failure and heterogeneity paths rather than reproduce a paper figure.
// The scenario golden pins them and the dispatch golden pins every
// other driver, so a new scenario never shifts a figure's golden.
var scenarioIDs = map[string]bool{"churn": true, "hetero": true}

// registered returns the registered drivers whose scenario membership is
// scenarios, in registration order.
func registered(scenarios bool) []Experiment {
	var out []Experiment
	for _, e := range Registry {
		if scenarioIDs[e.ID] == scenarios {
			out = append(out, e)
		}
	}
	return out
}

// renderAll renders the given experiments into one deterministic blob.
func renderAll(h Harness, exps []Experiment) string {
	var sb strings.Builder
	for _, res := range RunExperiments(h, exps) {
		sb.WriteString(res.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// checkGolden compares got with the golden at path, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update on the reference tree): %v", err)
	}
	if got != string(want) {
		t.Fatalf("experiment tables diverged from %s.\nFirst divergence: %s\n(see DESIGN.md section 6 identity contract; regenerate only if a deliberate behavior change is intended)",
			path, firstDiff(string(want), got))
	}
}

// TestDispatchGolden is the experiment-table identity contract (see
// DESIGN.md section 6): every registered driver outside scenarioIDs must
// reproduce the checked-in tables byte for byte. The golden was generated from the
// pre-overhaul tree (PR 1) and deliberately regenerated once, for the
// exactly-once phase-unlock fix (PR 4): that change removed the
// duplicate wakeups that had been double-enqueuing phases into the
// decentralized pendingFresh queues, so every decentralized section
// shifted (fewer probes, different RNG trajectories) while all
// centralized-only sections stayed identical — see CHANGES.md for the
// regen rationale and DESIGN.md for the before/after table. It was
// regenerated again for tblproto's Rollbacks column (PR 6) and for the
// push contract (PR 20: workers drop a reservation on NoDemand instead
// of polling; every Hopper-D cell moved, every Sparrow-only and
// centralized cell stayed byte-identical). Any other
// diff here means a tie-break, an iteration order, or an RNG
// consumption point changed — all figure reproductions would silently
// shift. CI refuses a change to the golden file unless CHANGES.md
// mentions the regen.
func TestDispatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is seconds-long; skipped with -short")
	}
	// Every speculation answer in every cell comes from the victim index,
	// so the golden also holds the index to what the scans answered when
	// it was generated.
	checkGolden(t, goldenPath, renderAll(goldenHarness, registered(false)))
}

// TestScenarioGolden pins the churn and hetero tables the way
// TestDispatchGolden pins the figures: every scenario in scenarioIDs must
// reproduce the checked-in tables byte for byte. Churn exercises the
// loss and requeue paths, hetero the classed cluster, demand filtering
// and the load-cached probe policy — none of which the figure drivers
// reach.
func TestScenarioGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is seconds-long; skipped with -short")
	}
	checkGolden(t, scenarioGoldenPath, renderAll(scenarioHarness, registered(true)))
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length mismatch: want %d lines, got %d lines", len(wl), len(gl))
}
