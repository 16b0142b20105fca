package live

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/wire"
)

// This file is the load-generation layer: it converts workload traces
// (generated or loaded — the same ones every simulator figure replays)
// into wire submissions, paces them against a live cluster at the
// trace's arrival times, and folds the completions back into the
// metrics.JobResult pipeline the experiment harness reports with.

// SubmitFromJob converts a workload job into its wire submission,
// carrying DAG dependencies, per-phase transfer work, and per-task
// replica locality hints.
func SubmitFromJob(j *cluster.Job) *wire.SubmitJob {
	m := &wire.SubmitJob{JobID: uint64(j.ID), Name: j.Name}
	for _, p := range j.Phases {
		ps := wire.PhaseSpec{
			MeanDur:      p.MeanTaskDuration,
			TransferWork: p.TransferWork,
			NumTasks:     uint32(len(p.Tasks)),
			DemandCPU:    p.Demand.CPU,
			DemandMem:    p.Demand.Mem,
		}
		for _, d := range p.Deps {
			ps.Deps = append(ps.Deps, uint16(d))
		}
		hasReps := false
		for _, t := range p.Tasks {
			if len(t.Replicas) > 0 {
				hasReps = true
				break
			}
		}
		if hasReps {
			ps.Replicas = make([][]uint32, 0, len(p.Tasks))
			for _, t := range p.Tasks {
				var reps []uint32
				for _, r := range t.Replicas {
					reps = append(reps, uint32(r))
				}
				ps.Replicas = append(ps.Replicas, reps)
			}
		}
		m.Phases = append(m.Phases, ps)
	}
	return m
}

// ReplayConfig drives one trace replay against a live cluster.
type ReplayConfig struct {
	// TimeScale maps trace (virtual) seconds to wall seconds; must match
	// the cluster's. Default 1.
	TimeScale float64
	// ArrivalScale additionally compresses inter-arrival gaps (2 = twice
	// the arrival rate). Default 1.
	ArrivalScale float64
	// Timeout bounds the whole replay. Default 5m.
	Timeout time.Duration
	// Log receives progress lines; nil silences them.
	Log io.Writer
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.ArrivalScale == 0 {
		c.ArrivalScale = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Minute
	}
	return c
}

// ReplayStats summarizes one replay beyond the per-job results.
type ReplayStats struct {
	SpecCopies int // speculative copies the schedulers launched
	Aborted    int // jobs failed by scheduler drain
	WallTime   time.Duration
}

// Replay submits the jobs round-robin across the clients at their trace
// arrival times (scaled) and collects every completion into the same
// metrics.Run shape the simulator experiments report. Jobs are paced by
// a single goroutine; each client's completions are collected
// concurrently.
//
// On success the clients remain usable (every collector has drained its
// share and exited). On error the clients are CLOSED before returning:
// collectors may still be blocked reading them, and a second Replay on
// the same connections would race those orphaned readers.
func Replay(clients []*Client, jobs []*cluster.Job, cfg ReplayConfig) (metrics.Run, ReplayStats, error) {
	cfg = cfg.withDefaults()
	var stats ReplayStats
	if len(clients) == 0 || len(jobs) == 0 {
		return metrics.Run{}, stats, fmt.Errorf("live: replay needs clients and jobs")
	}
	failed := func(err error) error {
		for _, c := range clients {
			c.Close()
		}
		return err
	}
	ordered := append([]*cluster.Job(nil), jobs...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Arrival < ordered[b].Arrival })
	base := ordered[0].Arrival

	info := make(map[uint64]*cluster.Job, len(ordered))
	perClient := make([]int, len(clients))
	for i, j := range ordered {
		info[uint64(j.ID)] = j
		perClient[i%len(clients)]++
	}

	type completion struct {
		jc  *wire.JobComplete
		err error
	}
	results := make(chan completion, len(ordered))
	for ci, c := range clients {
		// Each collector reads until it has seen its client's share of
		// THIS replay's completions. Foreign completions (a client
		// reused across replays, leftovers from earlier submissions) are
		// discarded without consuming the budget — counting them would
		// leave a genuine completion unread and time the replay out.
		go func(c *Client, n int) {
			for k := 0; k < n; {
				jc, err := c.WaitAny()
				if err != nil {
					results <- completion{nil, err}
					return
				}
				if _, mine := info[jc.JobID]; !mine {
					continue
				}
				results <- completion{jc, nil}
				k++
			}
		}(c, perClient[ci])
	}

	start := time.Now()
	logf := func(format string, args ...interface{}) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	// Pace submissions at scaled trace arrivals.
	for i, j := range ordered {
		at := time.Duration((j.Arrival - base) / cfg.ArrivalScale * cfg.TimeScale * float64(time.Second))
		if sleep := at - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		if err := clients[i%len(clients)].Submit(SubmitFromJob(j)); err != nil {
			return metrics.Run{}, stats, failed(fmt.Errorf("live: submitting job %d: %w", j.ID, err))
		}
	}
	logf("submitted %d jobs over %.1fs, waiting for completions", len(ordered), time.Since(start).Seconds())

	run := metrics.Run{Scheduler: "Hopper-D (live)"}
	deadline := time.After(cfg.Timeout)
	for done := 0; done < len(ordered); done++ {
		select {
		case c := <-results:
			if c.err != nil {
				return run, stats, failed(fmt.Errorf("live: collecting completions: %w", c.err))
			}
			jc := c.jc
			j := info[jc.JobID] // collectors forward only in-replay jobs
			if jc.Aborted {
				stats.Aborted++
				continue
			}
			stats.SpecCopies += int(jc.SpecCopies)
			run.Jobs = append(run.Jobs, metrics.JobResult{
				ID:         j.ID,
				Tasks:      j.TotalTasks(),
				DAGLen:     len(j.Phases),
				Arrival:    j.Arrival,
				Completion: jc.Completion,
			})
		case <-deadline:
			return run, stats, failed(fmt.Errorf("live: replay timeout with %d of %d jobs complete", done, len(ordered)))
		}
	}
	stats.WallTime = time.Since(start)
	// Canonical order for reporting: by job ID, like the simulator's
	// collected runs.
	sort.Slice(run.Jobs, func(a, b int) bool { return run.Jobs[a].ID < run.Jobs[b].ID })
	return run, stats, nil
}

// LocalClusterConfig sizes an in-process cluster (goroutine nodes over
// loopback TCP) for demos, load generation, and tests.
type LocalClusterConfig struct {
	Schedulers int
	Workers    int
	Slots      int
	Mode       protocol.Mode
	TimeScale  float64
	Seed       int64
	// Classes optionally makes the cluster heterogeneous: workers are
	// assigned class-by-class in ID order, exactly like
	// cluster.NewMachinesClassed lays machines out (class Counts should
	// sum to Workers; surplus workers — churn joins past the table — get
	// the homogeneous defaults). Empty means uniform Slots-per-worker.
	Classes []cluster.MachineClass
	// RedialInterval makes workers re-dial a crashed scheduler's address
	// until it comes back (WorkerConfig.RedialInterval, wall seconds).
	// Zero disables; set it when the run will exercise RestartScheduler.
	RedialInterval float64
}

// LocalCluster is a running in-process cluster.
type LocalCluster struct {
	Scheds  []*Scheduler
	Workers []*Worker
	Addrs   []string

	cfg    LocalClusterConfig
	nextID uint32               // next fresh worker ID for churn joins
	wheel  *protocol.TimerWheel // one timer wheel shared by every node

	// latPlace/latProbe aggregate scheduling latency across every
	// scheduler in the cluster (shared via SchedulerConfig).
	latPlace *metrics.Histogram
	latProbe *metrics.Histogram
}

// Latency returns the cluster-wide latency histograms: submit→first-
// placement and probe-round RTT, aggregated across all schedulers.
func (lc *LocalCluster) Latency() (place, probe *metrics.Histogram) {
	return lc.latPlace, lc.latProbe
}

// StartLocalCluster boots schedulers and workers as goroutines talking
// real loopback TCP. All nodes share one timer wheel, so a
// thousand-worker cluster runs a single ticker goroutine instead of a
// runtime timer per retry/cooldown/copy.
func StartLocalCluster(cfg LocalClusterConfig) (*LocalCluster, error) {
	if cfg.Schedulers <= 0 {
		cfg.Schedulers = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	lc := &LocalCluster{
		cfg:      cfg,
		nextID:   uint32(cfg.Workers),
		wheel:    protocol.NewTimerWheel(time.Millisecond, 512),
		latPlace: &metrics.Histogram{},
		latProbe: &metrics.Histogram{},
	}
	for i := 0; i < cfg.Schedulers; i++ {
		s, err := lc.newScheduler(i, "127.0.0.1:0")
		if err != nil {
			lc.Stop()
			return nil, err
		}
		go s.Run()
		lc.Scheds = append(lc.Scheds, s)
		lc.Addrs = append(lc.Addrs, s.Addr())
	}
	// Workers boot concurrently (bounded): each NewWorker dials every
	// scheduler, and at thousand-worker scale those handshakes dominate
	// boot time if run one at a time.
	lc.Workers = make([]*Worker, cfg.Workers)
	errs := make([]error, cfg.Workers)
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			w, err := lc.newWorker(uint32(i))
			if err != nil {
				errs[i] = err
				return
			}
			go w.Run()
			lc.Workers[i] = w
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			lc.Stop()
			return nil, err
		}
	}
	return lc, nil
}

func (lc *LocalCluster) newScheduler(i int, addr string) (*Scheduler, error) {
	return NewScheduler(SchedulerConfig{
		ID:            uint32(i),
		Addr:          addr,
		Mode:          lc.cfg.Mode,
		NumSchedulers: lc.cfg.Schedulers,
		TimeScale:     lc.cfg.TimeScale,
		Seed:          lc.cfg.Seed + int64(i),
		Timers:        lc.wheel,
		PlaceLatency:  lc.latPlace,
		ProbeLatency:  lc.latProbe,
	})
}

func (lc *LocalCluster) newWorker(id uint32) (*Worker, error) {
	wc := WorkerConfig{
		ID:             id,
		Slots:          lc.cfg.Slots,
		SchedulerAddrs: lc.Addrs,
		Mode:           lc.cfg.Mode,
		TimeScale:      lc.cfg.TimeScale,
		RedialInterval: lc.cfg.RedialInterval,
		Timers:         lc.wheel,
	}
	if ci, mc := classForWorker(lc.cfg.Classes, id); mc != nil {
		wc.Class = uint32(ci)
		wc.ClassName = mc.Name
		wc.Slots = mc.Slots
		wc.Speed = mc.Speed
		wc.Cap = mc.Cap
	}
	return NewWorker(wc)
}

// classForWorker maps a worker ID onto the class table's ID-ordered,
// class-by-class layout (the NewMachinesClassed layout). IDs past the
// table — churn joins — fall back to the homogeneous defaults.
func classForWorker(classes []cluster.MachineClass, id uint32) (int, *cluster.MachineClass) {
	off := int(id)
	for ci := range classes {
		if off < classes[ci].Count {
			return ci, &classes[ci]
		}
		off -= classes[ci].Count
	}
	return 0, nil
}

// KillScheduler crashes scheduler i abruptly (Scheduler.Kill): no
// drain, peers see only broken connections. Pair with RestartScheduler.
func (lc *LocalCluster) KillScheduler(i int) {
	lc.Scheds[i].Kill()
}

// RestartScheduler replaces a killed (or stopped) scheduler with a
// fresh instance under the same identity, listening on the SAME address
// so workers configured with RedialInterval find it again on their own.
// The bind is retried briefly: the dead listener's port may take a
// moment to free.
func (lc *LocalCluster) RestartScheduler(i int) error {
	var s *Scheduler
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		s, err = lc.newScheduler(i, lc.Addrs[i])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("live: rebinding scheduler %d on %s: %w", i, lc.Addrs[i], err)
	}
	go s.Run()
	lc.Scheds[i] = s
	return nil
}

// KillWorker stops worker i (its drain reports in-flight copies as
// killed, so schedulers requeue the lost work — a machine leaving the
// cluster). The slot in Workers is nil-ed; use AddWorker to join a
// replacement.
func (lc *LocalCluster) KillWorker(i int) {
	if lc.Workers[i] != nil {
		lc.Workers[i].Stop()
		lc.Workers[i] = nil
	}
}

// AddWorker joins a brand-new worker (fresh ID) to the cluster — a
// machine arriving. Returns the Workers index it was stored at.
func (lc *LocalCluster) AddWorker() (int, error) {
	id := lc.nextID
	lc.nextID++
	w, err := lc.newWorker(id)
	if err != nil {
		return 0, err
	}
	go w.Run()
	for i, old := range lc.Workers {
		if old == nil {
			lc.Workers[i] = w
			return i, nil
		}
	}
	lc.Workers = append(lc.Workers, w)
	return len(lc.Workers) - 1, nil
}

// Stop tears the cluster down (workers first, so their drains reach
// live schedulers; the shared wheel last, once no node can arm timers).
func (lc *LocalCluster) Stop() {
	for _, w := range lc.Workers {
		if w != nil {
			w.Stop()
		}
	}
	for _, s := range lc.Scheds {
		s.Stop()
	}
	lc.wheel.Stop()
}
