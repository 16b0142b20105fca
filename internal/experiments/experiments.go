package experiments

import (
	"fmt"
	"io"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// Harness controls experiment scale so the same drivers serve the full
// reproduction (cmd/hopper-sim) and the test suite.
type Harness struct {
	// Scale multiplies job counts; 1.0 is the reproduction default.
	Scale float64
	// Seeds is the number of independent replays; the paper replays each
	// experiment five times and reports medians.
	Seeds int
	// Workers bounds how many simulation cells run concurrently; 0 means
	// GOMAXPROCS, 1 forces fully serial execution. Whatever the setting,
	// output is byte-identical: every cell owns a private engine and RNG,
	// and results and log lines are merged in canonical cell order. This
	// is the simulator's only use of more than one core (DESIGN.md §4).
	Workers int
	// Log receives progress lines; nil silences them.
	Log io.Writer

	// pl is the shared worker-token pool; cells lazily creates one and
	// threads it to sub-cells so nested fan-out stays bounded.
	pl *workerPool
}

func (h Harness) jobs(n int) int {
	j := int(float64(n) * h.Scale)
	if j < 20 {
		j = 20
	}
	return j
}

func (h Harness) logf(format string, args ...interface{}) {
	if h.Log != nil {
		fmt.Fprintf(h.Log, format+"\n", args...)
	}
}

// Result is one experiment's regenerated artifact.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	s := fmt.Sprintf("=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Experiment is a registered driver: a figure/table reproduction or a
// robustness scenario.
type Experiment struct {
	ID    string
	Title string
	Run   func(h Harness) *Result
}

// Registry lists every driver in registration (file-init) order.
var Registry []Experiment

func register(id, title string, run func(h Harness) *Result) {
	Registry = append(Registry, Experiment{ID: id, Title: title, Run: run})
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared scheduler constructors -----------------------------------

func centralHopper(cfg scheduler.Config) SchedulerKind {
	return func(eng *simulator.Engine, exec *cluster.Executor) Arriver {
		return scheduler.NewHopper(eng, exec, cfg)
	}
}

func centralSRPT(cfg scheduler.Config) SchedulerKind {
	return func(eng *simulator.Engine, exec *cluster.Executor) Arriver {
		return scheduler.NewSRPT(eng, exec, cfg)
	}
}

func decentralKind(cfg decentral.Config) SchedulerKind {
	return func(eng *simulator.Engine, exec *cluster.Executor) Arriver {
		return decentral.New(eng, exec, cfg)
	}
}

// pairedRuns replays one seed's trace under several schedulers in
// parallel, returning runs aligned with the kinds slice. Each run clones
// the jobs, so the shared trace is only ever read.
func pairedRuns(h Harness, spec ClusterSpec, jobs []*cluster.Job, seed int64, kinds ...SchedulerKind) []RunResult {
	return cells(h, len(kinds), func(_ Harness, i int) RunResult {
		return RunTrace(kinds[i], spec, CloneJobs(jobs), seed)
	})
}
