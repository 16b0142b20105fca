package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// The scale benchmark suite (BENCH_*.json trajectory).
//
// Each scenario replays a canonical high-arrival-rate trace on a large
// cluster and reports the cost of a simulated scheduling decision (one
// placed copy): wall nanoseconds per decision, heap allocations per
// decision, and simulator event throughput. Centralized scenarios run
// twice — once with the optimized incremental dispatch and once with the
// frozen pre-overhaul reference implementation (scheduler/reference.go),
// which is behaviorally identical (dispatch_diff_test.go) — so the
// speedup column is re-measurable on any machine and the absolute
// numbers never have to be compared across hardware.
//
// The checked-in BENCH_PR<n>.json files form the repo's performance
// trajectory: each perf PR appends a file captured with
// `hopper-sim -bench-scale full -bench-out BENCH_PRn.json`, and CI
// replays the smoke suite against the latest file with -bench-check.

// BenchSchema identifies the report format.
const BenchSchema = "hopper-scale-bench/v1"

// ScaleScenario is one cell of the scale matrix.
type ScaleScenario struct {
	Name            string
	Kind            string // central-hopper | central-srpt | decentral-hopper
	Machines        int
	SlotsPerMachine int
	Jobs            int
	Util            float64
	Seed            int64
	// Hetero replaces the uniform cluster with the canonical three-class
	// mix (50% small / 30% standard / 20% big, scaled to Machines) and
	// stamps the trace with the hetero demand split — the bench twin of
	// the experiments hetero scenario.
	Hetero bool `json:",omitempty"`
}

// benchHeteroClasses scales the canonical three-class mix to the
// scenario's machine count (same shape as the hetero scenario's 3-class
// mix). SlotsPerMachine is ignored for hetero scenarios — slots come
// from the class table.
func benchHeteroClasses(machines int) []cluster.MachineClass {
	small := machines / 2
	standard := machines * 3 / 10
	big := machines - small - standard
	return []cluster.MachineClass{
		{Name: "small", Count: small, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
		{Name: "standard", Count: standard, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: big, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}
}

// benchSpec is the scenario's cluster spec (shared by trace generation
// and both measured runs).
func (sc ScaleScenario) benchSpec() ClusterSpec {
	spec := ClusterSpec{Machines: sc.Machines, SlotsPerMachine: sc.SlotsPerMachine, Exec: cluster.DefaultExecModel()}
	if sc.Hetero {
		spec.Classes = benchHeteroClasses(sc.Machines)
	}
	return spec
}

// BenchMeasurement is one engine run's cost profile.
type BenchMeasurement struct {
	WallSeconds       float64
	Events            uint64
	Decisions         int
	Allocs            uint64
	NsPerDecision     float64
	AllocsPerDecision float64
	EventsPerSec      float64
}

// ScenarioResult pairs the optimized run with the reference run (central
// scenarios only; the decentralized protocol has no frozen reference).
type ScenarioResult struct {
	ScaleScenario
	Optimized BenchMeasurement
	Reference *BenchMeasurement `json:",omitempty"`
	// SpeedupNsPerDecision = reference ns/decision over optimized; 1.0
	// means no change. AllocReduction likewise for allocs/decision.
	SpeedupNsPerDecision float64 `json:",omitempty"`
	AllocReduction       float64 `json:",omitempty"`
}

// BenchReport is the persisted artifact.
type BenchReport struct {
	Schema     string
	Mode       string // full | smoke
	GoVersion  string
	GOMAXPROCS int
	Scenarios  []ScenarioResult
	// LiveLatency is the live-stack tier (full mode from BENCH_PR10 on):
	// open-loop scheduling-latency quantiles and transport batching
	// counters from a thousand-worker in-process cluster. See
	// livelatency.go.
	LiveLatency *LiveLatencyResult `json:",omitempty"`
}

// ScaleScenarios returns the scenario matrix for one scale tier. The
// 10k-machine tier is the regime the paper's scale argument is about;
// the 1k smoke tier is the CI gate. Scenario names carry the tier so a
// smoke run is only ever ratio-compared against the smoke rows of a
// baseline (speedups grow with active-set size, so tiers are not
// interchangeable).
func ScaleScenarios(smoke bool) []ScaleScenario {
	machines, jobs, decJobs, tier := 10000, 3000, 1200, "10k"
	if smoke {
		machines, jobs, decJobs, tier = 1000, 320, 140, "1k"
	}
	return []ScaleScenario{
		{Name: "dispatch-hopper-" + tier, Kind: "central-hopper", Machines: machines, SlotsPerMachine: 4,
			Jobs: jobs, Util: 0.9, Seed: 7001},
		{Name: "dispatch-srpt-" + tier, Kind: "central-srpt", Machines: machines, SlotsPerMachine: 4,
			Jobs: jobs, Util: 0.9, Seed: 7002},
		{Name: "decentral-hopper-" + tier, Kind: "decentral-hopper", Machines: machines, SlotsPerMachine: 4,
			Jobs: decJobs, Util: 0.7, Seed: 7003},
	}
}

// ScaleScenarios100k is the exascale tier: decentralized Hopper alone on
// 100,000 machines (400k slots) — three orders of magnitude past the
// paper's 100-node testbed and 10x past the 10k tier. Only the
// decentralized protocol runs here: it is the architecture the paper
// argues scales (per-message constant factors, no central dispatch
// scan), and after the PR 5 hot-path overhaul it is also the fast path
// of this codebase. Full-mode bench runs include it; smoke does not.
func ScaleScenarios100k() []ScaleScenario {
	return []ScaleScenario{
		{Name: "decentral-hopper-100k", Kind: "decentral-hopper", Machines: 100000, SlotsPerMachine: 4,
			Jobs: 2400, Util: 0.7, Seed: 7005},
	}
}

// ScaleScenarios1M is the megacluster tier: decentralized Hopper on one
// million machines (4M slots), where the indexed victim search keeps
// offer handling off the O(running-tasks) scan (DESIGN.md §9).
// Full-mode bench runs include it.
func ScaleScenarios1M() []ScaleScenario {
	return []ScaleScenario{
		{Name: "decentral-hopper-1M", Kind: "decentral-hopper", Machines: 1000000, SlotsPerMachine: 4,
			Jobs: 4800, Util: 0.7, Seed: 7006},
	}
}

// ScaleScenariosHetero is the heterogeneous tier: the load-cached
// decentralized mode on the canonical three-class 10k-machine mix with
// the hetero demand split. It measures what the heterogeneity path
// costs per decision — class-aware free counters, demand-filtered
// hand-out, capacity-aware probe aiming, and the periodic reprobe
// refresh — at the same machine count as the homogeneous 10k tier.
// Full-mode bench runs include it; smoke does not.
func ScaleScenariosHetero() []ScaleScenario {
	return []ScaleScenario{
		{Name: "decentral-hetero-10k", Kind: "decentral-loadcache", Machines: 10000,
			Jobs: 1200, Util: 0.7, Seed: 7007, Hetero: true},
	}
}

// benchKind builds the scheduler for a scenario.
func benchKind(kind string, reference bool) SchedulerKind {
	cfg := scheduler.Config{CheckInterval: 1.0, ReferenceDispatch: reference}
	switch kind {
	case "central-hopper":
		return Central(func(eng *simulator.Engine, exec *cluster.Executor) scheduler.Engine {
			return scheduler.NewHopper(eng, exec, cfg)
		})
	case "central-srpt":
		return Central(func(eng *simulator.Engine, exec *cluster.Executor) scheduler.Engine {
			return scheduler.NewSRPT(eng, exec, cfg)
		})
	case "decentral-hopper":
		return Decentral(func(eng *simulator.Engine, exec *cluster.Executor) *decentral.System {
			return decentral.New(eng, exec, decentral.Config{Mode: decentral.ModeHopper, NumSchedulers: 50})
		})
	case "decentral-loadcache":
		return Decentral(func(eng *simulator.Engine, exec *cluster.Executor) *decentral.System {
			return decentral.New(eng, exec, decentral.Config{
				Mode: decentral.ModeLoadCache, NumSchedulers: 50, ReprobeInterval: 1,
			})
		})
	}
	panic("experiments: unknown bench kind " + kind)
}

// hasReference reports whether the scenario kind has a frozen reference
// dispatch to compare against. Only the central kinds do — the
// decentralized protocol (any mode) has no frozen reference.
func hasReference(kind string) bool { return !strings.HasPrefix(kind, "decentral-") }

// benchTrace generates the scenario's trace (shared verbatim between the
// optimized and reference runs).
func benchTrace(sc ScaleScenario) *workload.Trace {
	tr := GenTrace(workload.Facebook(), sc.Jobs, sc.Util, sc.benchSpec(), sc.Seed)
	if sc.Hetero {
		stampHeteroDemand(tr.Jobs)
	}
	return tr
}

// measureRun replays the trace once under the given scheduler, measuring
// wall time and allocation count. A run is a single goroutine, so
// runtime.MemStats.Mallocs deltas attribute cleanly.
func measureRun(sc ScaleScenario, kind SchedulerKind, jobs []*cluster.Job) BenchMeasurement {
	spec := sc.benchSpec()

	eng := simulator.New(sc.Seed + 1)
	ms := spec.machines()
	exec := cluster.NewExecutor(eng, ms, spec.Exec)
	var arr Arriver
	if kind.Central != nil {
		arr = kind.Central(eng, exec)
	} else {
		arr = kind.Decentral(eng, exec)
	}
	for _, j := range jobs {
		job := j
		eng.Post(job.Arrival, func() { arr.Arrive(job) })
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	eng.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	if got, want := len(arr.Completed()), len(jobs); got != want {
		panic(fmt.Sprintf("benchscale: %s finished %d of %d jobs", arr.Name(), got, want))
	}
	m := BenchMeasurement{
		WallSeconds: wall.Seconds(),
		Events:      eng.Fired,
		Decisions:   exec.CopiesStarted,
		Allocs:      after.Mallocs - before.Mallocs,
	}
	if m.Decisions > 0 {
		m.NsPerDecision = float64(wall.Nanoseconds()) / float64(m.Decisions)
		m.AllocsPerDecision = float64(m.Allocs) / float64(m.Decisions)
	}
	if m.WallSeconds > 0 {
		m.EventsPerSec = float64(m.Events) / m.WallSeconds
	}
	return m
}

// RunScaleBench executes the scenario matrix and returns the report.
// Smoke mode runs the 1k tier only (the CI gate); full mode runs the 1k
// tier and then the 10k tier, so a full report doubles as the baseline
// for smoke-mode regression checks.
func RunScaleBench(smoke bool, log io.Writer) *BenchReport {
	mode := "full"
	if smoke {
		mode = "smoke"
	}
	rep := &BenchReport{
		Schema:     BenchSchema,
		Mode:       mode,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	scenarios := ScaleScenarios(true)
	if !smoke {
		scenarios = append(scenarios, ScaleScenarios(false)...)
		scenarios = append(scenarios, ScaleScenariosHetero()...)
		scenarios = append(scenarios, ScaleScenarios100k()...)
		scenarios = append(scenarios, ScaleScenarios1M()...)
	}
	for _, sc := range scenarios {
		tr := benchTrace(sc)
		res := ScenarioResult{ScaleScenario: sc}
		res.Optimized = measureRun(sc, benchKind(sc.Kind, false), CloneJobs(tr.Jobs))
		if log != nil {
			fmt.Fprintf(log, "%-18s optimized: %8.0f ns/decision %7.1f allocs/decision %9.0f events/s (%d decisions)\n",
				sc.Name, res.Optimized.NsPerDecision, res.Optimized.AllocsPerDecision,
				res.Optimized.EventsPerSec, res.Optimized.Decisions)
		}
		if hasReference(sc.Kind) {
			ref := measureRun(sc, benchKind(sc.Kind, true), CloneJobs(tr.Jobs))
			res.Reference = &ref
			if res.Optimized.NsPerDecision > 0 {
				res.SpeedupNsPerDecision = ref.NsPerDecision / res.Optimized.NsPerDecision
			}
			if res.Optimized.AllocsPerDecision > 0 {
				res.AllocReduction = ref.AllocsPerDecision / res.Optimized.AllocsPerDecision
			}
			if log != nil {
				fmt.Fprintf(log, "%-18s reference: %8.0f ns/decision %7.1f allocs/decision %9.0f events/s -> %.2fx ns, %.1fx allocs\n",
					sc.Name, ref.NsPerDecision, ref.AllocsPerDecision, ref.EventsPerSec,
					res.SpeedupNsPerDecision, res.AllocReduction)
			}
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	if !smoke {
		// The live-stack tier rides only full captures: it boots a real
		// thousand-worker cluster (sockets, goroutines, wall-clock
		// pacing) and has no smoke-sized variant worth gating CI on —
		// the CI loadgen smoke covers the live path instead.
		ll, err := RunLiveLatency(log)
		if err != nil {
			panic(fmt.Sprintf("benchscale: live-latency tier: %v", err))
		}
		rep.LiveLatency = ll
	}
	return rep
}

// WriteJSON persists the report.
func (r *BenchReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadBenchReport reads a persisted report.
func LoadBenchReport(path string) (*BenchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, BenchSchema)
	}
	return &r, nil
}

// SummaryTable renders the report as a GitHub-flavored markdown table,
// comparing each scenario's measured speedup ratio against the same
// scenario in baseline (nil for a standalone table). CI appends this to
// the job summary so a perf regression is visible in the PR itself, not
// buried in the bench log. Ratios, not absolute ns, carry the signal —
// the same reasoning as CheckAgainst.
func (r *BenchReport) SummaryTable(baseline *BenchReport, baselineName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Scale bench (%s)\n\n", r.Mode)
	base := map[string]ScenarioResult{}
	if baseline != nil {
		for _, s := range baseline.Scenarios {
			base[s.Name] = s
		}
	}
	b.WriteString("| scenario | ns/decision | allocs/decision | events/s | speedup vs ref |")
	if baseline != nil {
		fmt.Fprintf(&b, " baseline (%s) | Δ |", baselineName)
	}
	b.WriteString("\n|---|---:|---:|---:|---:|")
	if baseline != nil {
		b.WriteString("---:|---:|")
	}
	b.WriteString("\n")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "| %s | %.0f | %.1f | %.0f |", s.Name,
			s.Optimized.NsPerDecision, s.Optimized.AllocsPerDecision, s.Optimized.EventsPerSec)
		if s.SpeedupNsPerDecision > 0 {
			fmt.Fprintf(&b, " %.2fx |", s.SpeedupNsPerDecision)
		} else {
			b.WriteString(" — |")
		}
		if baseline != nil {
			if bs, ok := base[s.Name]; ok && bs.SpeedupNsPerDecision > 0 && s.SpeedupNsPerDecision > 0 {
				fmt.Fprintf(&b, " %.2fx | %+.0f%% |", bs.SpeedupNsPerDecision,
					100*(s.SpeedupNsPerDecision/bs.SpeedupNsPerDecision-1))
			} else {
				b.WriteString(" — | — |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CheckAgainst compares this (freshly measured) report to a checked-in
// baseline and returns an error on regression. Absolute ns/decision is
// not comparable across machines, so the check is ratio-based: for every
// scenario with a reference column in both reports, the measured
// optimized-over-reference speedup must stay within tol of the
// baseline's (e.g. tol 0.2 fails a >20% regression in ns/decision
// relative to the reference implementation measured in the same
// process).
func (r *BenchReport) CheckAgainst(baseline *BenchReport, tol float64) error {
	base := make(map[string]ScenarioResult, len(baseline.Scenarios))
	for _, s := range baseline.Scenarios {
		base[s.Name] = s
	}
	checked := 0
	for _, s := range r.Scenarios {
		b, ok := base[s.Name]
		if !ok || b.SpeedupNsPerDecision == 0 || s.SpeedupNsPerDecision == 0 {
			continue
		}
		checked++
		floor := b.SpeedupNsPerDecision / (1 + tol)
		if s.SpeedupNsPerDecision < floor {
			return fmt.Errorf("scenario %s: speedup %.2fx below baseline %.2fx/(1+%.0f%%) = %.2fx — dispatch regressed",
				s.Name, s.SpeedupNsPerDecision, b.SpeedupNsPerDecision, tol*100, floor)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no comparable scenarios between report and baseline")
	}
	return nil
}
