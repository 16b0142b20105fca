package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestFastestSliceComposite(t *testing.T) {
	// Three repetitions of four slices; each repetition is slowest
	// somewhere, and the composite takes the column minima.
	total, spread := fastestSliceComposite([][]float64{
		{1, 9, 3, 4},
		{2, 2, 6, 4},
		{4, 3, 3, 8},
	})
	if want := 1.0 + 2 + 3 + 4; total != want {
		t.Errorf("total = %v, want %v", total, want)
	}
	// max/min per slice: 4, 4.5, 2, 2 -> median 3.
	if spread != 3 {
		t.Errorf("spread = %v, want 3", spread)
	}
	if total, spread := fastestSliceComposite(nil); total != 0 || spread != 0 {
		t.Errorf("empty input gave %v, %v", total, spread)
	}
	// One repetition is its own minimum.
	if total, spread := fastestSliceComposite([][]float64{{1, 2, 3}}); total != 6 || spread != 1 {
		t.Errorf("single repetition gave %v, %v, want 6, 1", total, spread)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{50, 10, 40, 20, 30, 60, 70, 80, 100, 90}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {0, 10}, {0.1, 10}, {0.11, 20},
	} {
		if got := exactQuantile(s, tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	if s[0] != 50 {
		t.Error("exactQuantile reordered its input")
	}
	if got := exactQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty input gave %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tc := newTracer("test")
	outer := tc.begin("outer")
	inner := tc.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tc.end(inner, map[string]float64{"n": 1})
	tc.end(outer, nil)
	start := time.Now()
	tc.leaf("leaf", outer, start, start.Add(time.Millisecond))
	if cov := tc.finish(); cov < 0.5 || cov > 1 {
		t.Errorf("coverage = %v", cov)
	}
	o, i := tc.spans[0], tc.spans[1]
	if i.Parent != o.ID || o.Parent != 0 || tc.spans[2].Parent != o.ID {
		t.Errorf("parents: outer %d inner %d leaf %d", o.Parent, i.Parent, tc.spans[2].Parent)
	}
	if want := (o.End - o.Start) - (i.End - i.Start) - int64(time.Millisecond); o.Self != want {
		t.Errorf("outer self = %d, want duration minus children = %d", o.Self, want)
	}
	if i.Self != i.End-i.Start {
		t.Errorf("a span without children has self %d, duration %d", i.Self, i.End-i.Start)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tc.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.Run != "test" || len(doc.Spans) != 3 {
		t.Errorf("span file: err %v, run %q, %d spans", err, doc.Run, len(doc.Spans))
	}

	var off *tracer // a nil tracer records nothing and never panics
	off.end(off.begin("x"), nil)
	off.leaf("x", 0, start, start)
}

func TestGuardsRejectBrokenCounters(t *testing.T) {
	spec := simSpec{jobs: 10}
	good := simCounters{JobsCompleted: 10, Messages: 23, Probes: 10, Offers: 6, Rollbacks: 1}
	if err := spec.check(good); err != nil {
		t.Fatalf("good counters rejected: %v", err)
	}
	for name, mutate := range map[string]func(*simCounters){
		"unfinished job":  func(c *simCounters) { c.JobsCompleted = 9 },
		"open ledger":     func(c *simCounters) { c.Messages++ },
		"occupancy leak":  func(c *simCounters) { c.OccupancyLeaks = 1 },
		"double wakeup":   func(c *simCounters) { c.DoubleWakeups = 1 },
		"missed rollback": func(c *simCounters) { c.Rollbacks = 0 },
	} {
		c := good
		mutate(&c)
		if spec.check(c) == nil {
			t.Errorf("%s: accepted %+v", name, c)
		}
	}
}

// TestSampledReplayFollowsSeed pins what --seed means on a simulated
// workload: the pinned replay's counts do not move with it, the sampled
// replay's job times do, and a seed's replay repeats exactly. It runs
// before the smoke test, whose live cluster leaves goroutines winding
// down that would disturb the allocation guard.
func TestSampledReplayFollowsSeed(t *testing.T) {
	w := workloads[0]
	run := func(seed int64) map[string]float64 {
		rep, err := w.Run(runConfig{seed: seed, seconds: 0.1, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.vals
	}
	a, b := run(1), run(2)
	for _, name := range []string{"events_per_decision", "run.decisions", "run.pinned_job_mean_ms"} {
		if a[name] != b[name] {
			t.Errorf("%s moved with the seed: %v vs %v", name, a[name], b[name])
		}
	}
	if a["job_mean_ms"] == b["job_mean_ms"] {
		t.Errorf("job_mean_ms did not move with the seed: %v", a["job_mean_ms"])
	}
	spec := simSpec{kind: decentralHopper, machines: 100, slots: 4, jobs: 20, util: 0.7, traceSeed: 7003}
	r1, r2 := spec.runRep(spec.kind, 1, 0, nil), spec.runRep(spec.kind, 1, 0, nil)
	if r1.counters != r2.counters || mean(r1.jobMs) != a["job_mean_ms"] {
		t.Errorf("seed 1 does not repeat: %+v, %+v, job mean %v vs %v", r1.counters, r2.counters, mean(r1.jobMs), a["job_mean_ms"])
	}
}

// TestSmokeAllWorkloads runs every workload at smoke size, untraced and
// traced, through the same path the command takes, guards included. The
// subtests run one after another: the allocation guard reads a counter
// the whole process shares.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{seed: w.DefaultSeed + 1, seconds: 1, trace: trace, smoke: true}
				res, err := runWorkload(w, cfg, filepath.Join(t.TempDir(), "spans.json"))
				if err != nil {
					t.Fatalf("trace=%t: %v", trace, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%t: %d metrics in the result, want %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%t: metric %s = %+v (present %t)", trace, m.Name, v, ok)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, v.Value)
					}
				}
			}
		})
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and spec.go to each
// other: every workload and metric the file names is one the code
// emits, and the other way round, within the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var want benchmarkFile
	want.Command = []string{"bash", "bench/run.sh"}
	want.Paths = []string{"bench"}
	want.RunSeconds = file.RunSeconds
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	want.EndToEnd, want.PerLayer = endToEnd, perLayer
	if !reflect.DeepEqual(file, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match spec.go; spec.go says:\n%s", b)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range endToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", file.RunSeconds)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}
