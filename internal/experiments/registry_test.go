package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every artifact in the paper's evaluation must have a driver, plus
	// the repo's own protocol-overhead table and robustness scenarios.
	want := []string{"table1", "fig3", "fig5a", "fig5b", "fig6", "fig7",
		"fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "fig13", "ablation",
		"tblproto", "chaos", "churn", "hetero"}
	have := map[string]bool{}
	for _, e := range Registry {
		if have[e.ID] {
			t.Errorf("experiment ID %s registered twice", e.ID)
		}
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	for _, e := range Registry {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s missing title or runner", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}

// TestEveryExperimentRunsAtTinyScale executes each driver end to end at
// minimal scale: every driver must produce at least one table with at
// least one row, and must not panic or hang. Skipped with -short.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are slow; skipped with -short")
	}
	h := Harness{Scale: 0.02, Seeds: 1}
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.Run(h)
			if res.ID != e.ID {
				t.Errorf("result ID %q != experiment ID %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				if out := tab.String(); !strings.Contains(out, tab.Header[0]) {
					t.Errorf("table %q renders without header", tab.Title)
				}
			}
		})
	}
}

func TestHarnessJobsFloor(t *testing.T) {
	h := Harness{Scale: 0.0001, Seeds: 1}
	if got := h.jobs(1000); got != 20 {
		t.Fatalf("jobs floor = %d, want 20", got)
	}
	h2 := Harness{Scale: 2, Seeds: 1}
	if got := h2.jobs(1000); got != 2000 {
		t.Fatalf("scaled jobs = %d, want 2000", got)
	}
}
