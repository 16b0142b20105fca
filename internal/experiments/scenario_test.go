package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestHeteroTruncatesMessageMedians pins hetero's output rule that the
// scenario golden does not reach: probe counts are even (every probe
// ratio in the sweep is whole), and the golden's message medians happen
// to be whole too. Probe and message medians print truncated, and the
// load-cache win count compares truncated probes.
func TestHeteroTruncatesMessageMedians(t *testing.T) {
	row := func(avg, probes, msgs float64) []float64 { return []float64{avg, probes, msgs} }
	res := heteroResult([][]float64{
		// 2-class: LC ties Hopper-D on completion and on truncated probes.
		row(50, 100.5, 2211.5), row(50, 100.9, 3000), row(60, 90, 1000),
		// 3-class: LC sends fewer probes.
		row(80, 99.5, 10), row(70, 100, 20), row(90, 80, 30),
	})
	if got := res.Tables[1].Rows[0]; !reflect.DeepEqual(got, []string{"2-class", "100.0", "100.0", "90.0"}) {
		t.Errorf("probe row = %q, want truncated medians", got)
	}
	if got := res.Tables[2].Rows[0][1]; got != "2211.0" {
		t.Errorf("message median 2211.5 prints %q, want 2211.0", got)
	}
	if !strings.Contains(res.Notes[1], "on 1 of 2 mixes") {
		t.Errorf("win note %q, want 1 of 2: truncated probes tie on 2-class", res.Notes[1])
	}
}

// Run the chaos scenario at two seeds: every cell of the live chaos
// golden, on the shipped nodes, must pass every oracle Check holds it to.
func TestChaosScenarioSmoke(t *testing.T) {
	e, ok := ByID("chaos")
	if !ok {
		t.Fatal("chaos scenario not registered")
	}
	res := e.Run(Harness{Scale: 1, Seeds: 2})
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 2*len(chaosCells) {
		t.Fatalf("chaos scenario produced %d tables, want one with a row per cell and seed", len(res.Tables))
	}
	for _, row := range res.Tables[0].Rows {
		if got := row[len(row)-1]; got != "ok" {
			t.Errorf("%s seed %s: check reads %q", row[0], row[1], got)
		}
	}
}

// Smoke-run the churn scenario at reduced scale: every cell must finish
// every job (RunTrace panics otherwise — a stranded job under churn is
// a recovery bug, not noise) and produce the three tables.
func TestChurnScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation sweep")
	}
	e, ok := ByID("churn")
	if !ok {
		t.Fatal("churn scenario not registered")
	}
	res := e.Run(Harness{Scale: 0.1, Seeds: 1})
	if len(res.Tables) != 3 {
		t.Fatalf("churn scenario produced %d tables, want 3", len(res.Tables))
	}
	for _, tab := range res.Tables {
		if len(tab.Rows) != 4 {
			t.Fatalf("table %q has %d rows, want one per rate (4)", tab.Title, len(tab.Rows))
		}
	}
}

// Smoke-run the hetero scenario at reduced scale: every cell must
// finish every job on every class mix × mode (RunTrace panics otherwise
// — a stranded big-demand task is a liveness bug in the demand-aware
// hand-out or the probe aiming, not noise), and the load-cached policy
// must beat random-subset probing on completion time or probe traffic
// on at least one mix (the scenario's headline claim).
func TestHeteroScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation sweep")
	}
	e, ok := ByID("hetero")
	if !ok {
		t.Fatal("hetero scenario not registered")
	}
	res := e.Run(Harness{Scale: 0.1, Seeds: 1})
	if len(res.Tables) != 3 {
		t.Fatalf("hetero scenario produced %d tables, want 3", len(res.Tables))
	}
	for _, tab := range res.Tables {
		if len(tab.Rows) != len(heteroMixes) {
			t.Fatalf("table %q has %d rows, want one per mix (%d)", tab.Title, len(tab.Rows), len(heteroMixes))
		}
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "load-cache beats random-subset probing") && !strings.Contains(n, "on 0 of") {
			found = true
		}
	}
	if !found {
		t.Fatalf("load-cache win note missing or zero wins; notes: %q", res.Notes)
	}
}
