// Package experiments contains one driver per table/figure in the paper's
// evaluation (Section 7) and per robustness scenario, plus the shared
// machinery behind them: RunTrace replays a workload trace against any
// scheduler — centralized or decentralized — and one path carries every
// seed-swept sweep from simulation cell to table row. A cell is one
// (configuration × seed) replay and returns a fixed-width row of numbers;
// seedMedians reduces each configuration's per-seed rows to per-column
// medians, the statistic the paper reports; the driver formats that one
// row into its table. See DESIGN.md for the experiment index (section 3)
// and the shapes each driver should show.
package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/stats"
	"github.com/hopper-sim/hopper/internal/workload"
)

// --- parallel cell runner --------------------------------------------
//
// Every experiment decomposes into independent cells — one (configuration
// × seed) simulation each. Cells share nothing mutable: each owns a
// private engine, RNG, cluster, and trace, all derived from the cell's
// seed. The runner fans cells out to a bounded worker pool and merges
// results (and buffered log lines) in canonical cell order, so parallel
// output is byte-identical to Workers=1. See DESIGN.md for the contract.

// workerPool is a token bucket bounding helper goroutines across nested
// cells calls. Callers always execute cells inline as well, so a nested
// fan-out that finds the pool empty degrades to serial instead of
// deadlocking.
type workerPool struct{ tokens chan struct{} }

func newWorkerPool(helpers int) *workerPool {
	return &workerPool{tokens: make(chan struct{}, helpers)}
}

func (p *workerPool) tryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *workerPool) release() { <-p.tokens }

// workers resolves the effective parallelism bound.
func (h Harness) workers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// cells runs f once per cell index on the harness worker pool and returns
// the results in cell order. Each cell receives a harness whose Log is a
// private buffer; buffers are flushed to h.Log in cell order afterwards,
// keeping parallel log output identical to serial.
func cells[T any](h Harness, n int, f func(h Harness, i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	var bufs []bytes.Buffer
	var done []bool
	var flushMu sync.Mutex
	nextFlush := 0
	if h.Log != nil {
		bufs = make([]bytes.Buffer, n)
		done = make([]bool, n)
	}
	if h.pl == nil {
		h.pl = newWorkerPool(h.workers() - 1)
	}
	runCell := func(i int) {
		hh := h
		if bufs != nil {
			hh.Log = &bufs[i]
		}
		out[i] = f(hh, i)
		if bufs != nil {
			// Stream each cell's log as soon as the canonical prefix is
			// complete: serial runs flush every cell immediately, parallel
			// runs flush in cell order as completions allow, and a panic
			// mid-run loses only the unfinished suffix.
			flushMu.Lock()
			done[i] = true
			for nextFlush < n && done[nextFlush] {
				if bufs[nextFlush].Len() > 0 {
					h.Log.Write(bufs[nextFlush].Bytes())
				}
				nextFlush++
			}
			flushMu.Unlock()
		}
	}

	if h.workers() <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			runCell(i)
		}
	} else {
		var next atomic.Int64
		work := func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runCell(i)
			}
		}
		var wg sync.WaitGroup
		for spawned := 0; spawned < n-1 && h.pl.tryAcquire(); spawned++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer h.pl.release()
				work()
			}()
		}
		work()
		wg.Wait()
	}
	return out
}

// seedMatrix runs f for every (config, seed) cell — the canonical
// experiment shape — and returns results grouped by config with seeds in
// order. Seed s is base + stride*s, preserving each experiment's
// historical seed sequence. Cell order is (config-major, seed-minor),
// matching the serial loops the drivers replaced.
func seedMatrix[T any](h Harness, nCfg int, base, stride int64, f func(h Harness, cfg, s int, seed int64) T) [][]T {
	if h.Seeds <= 0 {
		panic("experiments: Harness.Seeds must be positive")
	}
	flat := cells(h, nCfg*h.Seeds, func(hh Harness, i int) T {
		s := i % h.Seeds
		return f(hh, i/h.Seeds, s, base+stride*int64(s))
	})
	out := make([][]T, nCfg)
	for c := range out {
		out[c] = flat[c*h.Seeds : (c+1)*h.Seeds]
	}
	return out
}

// seedMedians runs f for every (config, seed) cell, as seedMatrix does,
// and reduces each config's per-seed rows to their per-column medians:
// out[cfg][col] is the median over seeds of column col.
func seedMedians(h Harness, nCfg int, base, stride int64, f func(h Harness, cfg, s int, seed int64) []float64) [][]float64 {
	rows := seedMatrix(h, nCfg, base, stride, f)
	out := make([][]float64, nCfg)
	for c, perSeed := range rows {
		out[c] = medians(perSeed)
	}
	return out
}

// medians returns the per-column median of equal-width rows. A column
// that is NaN in every row (a bin no job fell into) stays NaN, which
// metrics.Table.AddF prints as "-".
func medians(perSeed [][]float64) []float64 {
	out := make([]float64, len(perSeed[0]))
	col := make([]float64, len(perSeed))
	for c := range out {
		for s, row := range perSeed {
			col[s] = row[c]
		}
		out[c] = stats.Median(col)
	}
	return out
}

// RunExperiments executes the given experiments, fanning their cells out
// to one shared worker pool, and returns results in input order. Cell
// parallelism inside each experiment does the heavy lifting; experiments
// themselves start in order but overlap once workers free up.
func RunExperiments(h Harness, exps []Experiment) []*Result {
	return cells(h, len(exps), func(hh Harness, i int) *Result {
		return exps[i].Run(hh)
	})
}

// Arriver is the common contract of centralized engines and the
// decentralized system.
type Arriver interface {
	Name() string
	Arrive(j *cluster.Job)
	Completed() []*cluster.Job
}

// ClusterSpec describes the simulated cluster.
type ClusterSpec struct {
	Machines        int
	SlotsPerMachine int
	Exec            cluster.ExecModel

	// Classes, when non-empty, describes a heterogeneous cluster and
	// takes precedence over Machines/SlotsPerMachine: RunTrace builds
	// the machine set class by class (cluster.NewMachinesClassed), and
	// NumMachines/TotalSlots derive from the table. Every existing
	// experiment leaves it nil and keeps the homogeneous constructor.
	Classes []cluster.MachineClass
}

// TotalSlots returns cluster capacity.
func (c ClusterSpec) TotalSlots() int {
	if len(c.Classes) > 0 {
		n := 0
		for _, mc := range c.Classes {
			n += mc.Count * mc.Slots
		}
		return n
	}
	return c.Machines * c.SlotsPerMachine
}

// NumMachines returns the machine count, from the class table when one
// is declared.
func (c ClusterSpec) NumMachines() int {
	if len(c.Classes) > 0 {
		n := 0
		for _, mc := range c.Classes {
			n += mc.Count
		}
		return n
	}
	return c.Machines
}

// machines builds the spec's machine set.
func (c ClusterSpec) machines() *cluster.Machines {
	if len(c.Classes) > 0 {
		return cluster.NewMachinesClassed(c.Classes)
	}
	return cluster.NewMachines(c.Machines, c.SlotsPerMachine)
}

// Prototype200 is the paper's deployment: 200 machines, 16 slots each.
func Prototype200() ClusterSpec {
	return ClusterSpec{Machines: 200, SlotsPerMachine: 16, Exec: cluster.DefaultExecModel()}
}

// SchedulerKind builds one scheduler — a centralized engine or a
// decentralized system — over RunTrace's fresh engine and executor.
type SchedulerKind func(eng *simulator.Engine, exec *cluster.Executor) Arriver

// RunResult is one full trace replay under one scheduler.
type RunResult struct {
	Run  metrics.Run
	Exec *cluster.Executor
	// Counters are the decentralized adapter's protocol, churn and
	// recovery counters; zero for centralized engines.
	decentral.Counters
	// LocalFraction is the fraction of copies that ran data-local.
	LocalFraction float64
}

// RunTrace replays jobs (already carrying arrival times) on a fresh
// cluster under the given scheduler. The seed drives all simulation
// randomness (service times, placement choices); the trace itself was
// generated with its own seed, so scheduler comparisons replay identical
// workloads. It panics if any job fails to finish — that is always a
// protocol bug and must not be silently averaged over.
func RunTrace(kind SchedulerKind, spec ClusterSpec, jobs []*cluster.Job, seed int64) RunResult {
	eng := simulator.New(seed)
	exec := cluster.NewExecutor(eng, spec.machines(), spec.Exec)
	arr := kind(eng, exec)

	for _, j := range jobs {
		job := j
		eng.Post(job.Arrival, func() { arr.Arrive(job) })
	}
	eng.Run()

	if got, want := len(arr.Completed()), len(jobs); got != want {
		panic(fmt.Sprintf("experiments: %s finished %d of %d jobs — scheduler livelock or protocol bug (pending=%d fired=%d now=%v)",
			arr.Name(), got, want, eng.Pending(), eng.Fired, eng.Now()))
	}
	res := RunResult{
		Run:  metrics.Run{Jobs: metrics.Collect(arr.Completed())},
		Exec: exec,
	}
	if sys, ok := arr.(*decentral.System); ok {
		res.Counters = sys.Counters
	}
	if exec.CopiesStarted > 0 {
		res.LocalFraction = float64(exec.LocalCopies) / float64(exec.CopiesStarted)
	}
	return res
}

// CloneJobs deep-copies a generated trace so each scheduler run starts
// from pristine job state (the cluster mutates tasks in place). A
// phase's tasks come from one slab and its replica lists from one
// backing array (cluster.NewTasks, cluster.PackReplicas).
func CloneJobs(jobs []*cluster.Job) []*cluster.Job {
	out := make([]*cluster.Job, len(jobs))
	for i, j := range jobs {
		phases := make([]*cluster.Phase, len(j.Phases))
		for pi, p := range j.Phases {
			np := &cluster.Phase{
				Deps:             append([]int(nil), p.Deps...),
				MeanTaskDuration: p.MeanTaskDuration,
				TransferWork:     p.TransferWork,
				Demand:           p.Demand,
				Tasks:            cluster.NewTasks(len(p.Tasks)),
			}
			for ti, t := range p.Tasks {
				np.Tasks[ti].Demand = t.Demand
			}
			cluster.PackReplicas(np.Tasks, func(ti int) []cluster.MachineID { return p.Tasks[ti].Replicas })
			phases[pi] = np
		}
		out[i] = cluster.NewJob(j.ID, j.Name, j.Arrival, phases)
	}
	return out
}

// GenTrace is a convenience wrapper over workload.Generate.
func GenTrace(profile workload.Profile, numJobs int, util float64, spec ClusterSpec, seed int64) *workload.Trace {
	return workload.Generate(workload.Config{
		Profile:           profile,
		NumJobs:           numJobs,
		TargetUtilization: util,
		TotalSlots:        spec.TotalSlots(),
		NumMachines:       spec.NumMachines(),
		Seed:              seed,
	})
}
