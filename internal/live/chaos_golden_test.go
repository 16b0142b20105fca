package live

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateChaosGolden = flag.Bool("update", false, "rewrite testdata/chaos_frames_golden.txt from the current implementation")

const chaosGoldenPath = "testdata/chaos_frames_golden.txt"

// frameLogDigest renders a run's frame log as its length and a sha256 of
// every frame's (at, link, type, seq, job, phase, task, flag, fate).
func frameLogDigest(frames []sentFrame) string {
	h := sha256.New()
	for _, f := range frames {
		fmt.Fprintf(h, "%v s%d w%d %t %d %d %d %d %d %t %v %v %v %v\n",
			f.at, f.sched, f.worker, f.toWorker, f.typ, f.seq, f.job, f.phase, f.task, f.flag,
			f.fate.Drop, f.fate.Delay, f.fate.Dup, f.fate.DupDelay)
	}
	return fmt.Sprintf("frames=%d sha256=%x", len(frames), h.Sum(nil))
}

// TestChaosFrameLogGolden pins the frame log of every chaos cell — what
// each shipped node sent, when, and what the injector did with it — the
// live stack's counterpart of the simulator's dispatch golden: a change
// to the scheduler or worker that is meant to keep behaviour must leave
// every line byte-identical.
func TestChaosFrameLogGolden(t *testing.T) {
	type cell struct {
		name string
		ChaosCell
	}
	// The order the golden was recorded in: the zero-rate cell once, at
	// TestChaosZeroRatesMatchesParity's seed; each rate cell across
	// chaosSeeds; then, seed by seed, the partition and per-type cells.
	var cells, windowed []cell
	add := func(name string, c ChaosCell, seed int64) {
		c.Seed = seed
		cells = append(cells, cell{fmt.Sprintf("%s seed %d", name, seed), c})
	}
	for _, m := range ChaosCells {
		switch {
		case m.Cell.Rates != (Rates{}):
			for _, seed := range chaosSeeds {
				add(m.Name, m.Cell, seed)
			}
		case m.Cell.Partition != [2]float64{} || m.Cell.PerType != nil:
			windowed = append(windowed, cell{m.Name, m.Cell})
		default:
			add(m.Name, m.Cell, 42)
		}
	}
	for _, seed := range chaosSeeds {
		for _, w := range windowed {
			add(w.name, w.ChaosCell, seed)
		}
	}
	var sb strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&sb, "%s: %s\n", c.name, frameLogDigest(RunVirtual(c.ChaosCell).frames))
	}
	got := sb.String()
	if *updateChaosGolden {
		if err := os.MkdirAll(filepath.Dir(chaosGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chaosGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", chaosGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(chaosGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("chaos frame logs diverged from the checked-in reference.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
