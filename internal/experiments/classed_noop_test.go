package experiments

import (
	"os"
	"testing"
)

// TestSingleClassDifferential is the heterogeneity refactor's no-op
// guarantee, checked differentially: every registered figure driver,
// run on a single-class cluster built through the classed constructor
// (speed 1, no capacity vector), must reproduce the checked-in dispatch
// golden byte for byte — the identical bar the flat constructor is held
// to. Machine layout, slot accounting, per-class free counters, speed
// scaling, and the demand-aware pick paths all sit between the two
// configurations; any observable difference between them is a refactor
// regression, not a tunable. CI runs this under -race alongside the
// chaos suite.
func TestSingleClassDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is seconds-long; skipped with -short")
	}
	forceClassedLayout = true
	defer func() { forceClassedLayout = false }()
	got := renderAll(goldenHarness, Registry)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if got != string(want) {
		t.Fatalf("single-class classed layout diverged from the flat-constructor golden.\nFirst divergence: %s",
			firstDiff(string(want), got))
	}
}
