package live

import (
	"fmt"
	"math/rand"
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
// into wire submissions, lays them out as arrivals — once each at the
// trace's times, or open loop at a Poisson rate — and drives them
// against a live cluster through one function, Drive, which folds the
// completions back into the metrics.JobResult pipeline the experiment
// harness reports with.

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
		ids := 0
		for _, t := range p.Tasks {
			ids += len(t.Replicas)
		}
		if ids > 0 {
			// One backing array for the phase's groups, each capped at
			// its own end, as the decoder packs them.
			backing := make([]uint32, 0, ids)
			ps.Replicas = make([][]uint32, len(p.Tasks))
			for i, t := range p.Tasks {
				if len(t.Replicas) == 0 {
					continue
				}
				from := len(backing)
				for _, r := range t.Replicas {
					backing = append(backing, uint32(r))
				}
				ps.Replicas[i] = backing[from:len(backing):len(backing)]
			}
		}
		m.Phases = append(m.Phases, ps)
	}
	return m
}

// Arrival is one submission of a driven run: a job and when it is due,
// as a wall-clock offset from the run's start.
type Arrival struct {
	At  time.Duration
	Job *wire.SubmitJob
}

// Ledger accounts for every job of one driven run. It always closes:
// Submitted = Completed + Aborted + Unreported.
type Ledger struct {
	Submitted int
	Completed int
	Aborted   int // failed by the scheduler: a drain, a rejected spec
	// Unreported jobs had no completion by the drain deadline: still
	// queued or running (an overloaded cluster), or lost with a
	// connection.
	Unreported int
	SpecCopies int // speculative copies the completed jobs ran
	WallTime   time.Duration
}

// TraceArrivals replays trace jobs once each: a job is due at its trace
// arrival after the first job's, divided by arrivalScale (2 = twice the
// arrival rate) and mapped to wall clock by timeScale, the cluster's.
func TraceArrivals(jobs []*cluster.Job, timeScale, arrivalScale float64) []Arrival {
	ordered := append([]*cluster.Job(nil), jobs...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Arrival < ordered[b].Arrival })
	out := make([]Arrival, len(ordered))
	for i, j := range ordered {
		at := (j.Arrival - ordered[0].Arrival) / arrivalScale * timeScale
		out[i] = Arrival{At: time.Duration(at * float64(time.Second)), Job: SubmitFromJob(j)}
	}
	return out
}

// PoissonArrivals is an open loop: jobs arrive at rate per wall second
// (exponential gaps) until window closes, however fast the cluster
// finishes them — the regime where latency tails and queue growth mean
// something. Each arrival draws its gap, then a template; its job ID is
// its sequence number in the run.
func PoissonArrivals(templates []*cluster.Job, rate float64, window time.Duration, seed int64) []Arrival {
	// Render each template once; an arrival changes only the job ID (the
	// phases are read-only on this side of the wire).
	wts := make([]*wire.SubmitJob, len(templates))
	for i, j := range templates {
		wts[i] = SubmitFromJob(j)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Arrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > window {
			return out
		}
		m := *wts[rng.Intn(len(wts))]
		m.JobID = uint64(len(out))
		out = append(out, Arrival{At: at, Job: &m})
	}
}

// Drive is the client-side load driver. It submits each arrival, in
// order and round-robin across the clients, when it is due; collects
// completions until every job is reported or drain has passed since the
// last submission; and closes the clients on return. The run holds the
// completed jobs by ID, in the metrics.Run shape the simulator
// experiments report (Arrival is the wall-clock offset in seconds). A
// completion for a job outside the run — a leftover on a reused
// connection — is ignored. Job IDs must be unique within the run.
//
// The error is for bad input and failed submissions only: a job missing
// at the deadline is Unreported, and a run against a silent cluster
// returns after the drain.
func Drive(clients []*Client, arrivals []Arrival, drain time.Duration) (metrics.Run, Ledger, error) {
	var run metrics.Run
	var led Ledger
	// Collectors block in Recv, and only a closed connection ends them.
	stop := make(chan struct{})
	var collectors sync.WaitGroup
	defer func() {
		close(stop)
		for _, c := range clients {
			c.Close()
		}
		collectors.Wait()
	}()
	if len(clients) == 0 {
		return run, led, fmt.Errorf("live: driving a run needs a client")
	}
	index := make(map[uint64]int, len(arrivals)) // job ID -> arrival
	for i, a := range arrivals {
		if _, dup := index[a.Job.JobID]; dup {
			return run, led, fmt.Errorf("live: job %d appears twice in the run", a.Job.JobID)
		}
		index[a.Job.JobID] = i
	}

	// A collector forwards every completion its client reads, then one
	// marked closed when the connection ends.
	type completion struct {
		wire.JobComplete
		closed bool
	}
	results := make(chan completion)
	for _, c := range clients {
		collectors.Add(1)
		go func(c *Client) {
			defer collectors.Done()
			for {
				jc, err := c.WaitAny()
				select {
				case results <- completion{jc, err != nil}:
				case <-stop:
					return
				}
				if err != nil {
					return
				}
			}
		}(c)
	}

	start := time.Now()
	reported := make([]bool, len(arrivals))
	open := len(clients) // connections still able to report
	// timer is the next arrival's due time, then the drain deadline.
	first := drain
	if len(arrivals) > 0 {
		first = arrivals[0].At
	}
	timer := time.NewTimer(first)
	defer timer.Stop()
	next := 0 // arrivals[:next] are submitted
loop:
	for next < len(arrivals) || (led.Completed+led.Aborted < led.Submitted && open > 0) {
		select {
		case <-timer.C:
			if next == len(arrivals) {
				break loop
			}
			if err := clients[next%len(clients)].Submit(arrivals[next].Job); err != nil {
				return metrics.Run{}, led, fmt.Errorf("live: submitting job %d: %w", arrivals[next].Job.JobID, err)
			}
			led.Submitted++
			next++
			if next < len(arrivals) {
				timer.Reset(time.Until(start.Add(arrivals[next].At)))
			} else {
				timer.Reset(drain)
			}
		case jc := <-results:
			if jc.closed {
				open--
				continue
			}
			i, mine := index[jc.JobID]
			if !mine || i >= next || reported[i] {
				continue // outside the run, not sent yet, or already reported
			}
			reported[i] = true
			if jc.Aborted {
				led.Aborted++
				continue
			}
			led.Completed++
			led.SpecCopies += int(jc.SpecCopies)
			a := arrivals[i]
			tasks := 0
			for _, p := range a.Job.Phases {
				tasks += int(p.NumTasks)
			}
			run.Jobs = append(run.Jobs, metrics.JobResult{
				ID:         cluster.JobID(jc.JobID),
				Tasks:      tasks,
				DAGLen:     len(a.Job.Phases),
				Completion: jc.Completion,
			})
		}
	}
	led.Unreported = led.Submitted - led.Completed - led.Aborted
	led.WallTime = time.Since(start)
	// Canonical order for reporting: by job ID, like the simulator's
	// collected runs.
	sort.Slice(run.Jobs, func(a, b int) bool { return run.Jobs[a].ID < run.Jobs[b].ID })
	return run, led, nil
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
}

// LocalCluster is a running in-process cluster.
type LocalCluster struct {
	Scheds  []*Scheduler
	Workers []*Worker
	Addrs   []string

	cfg    LocalClusterConfig
	nextID uint32               // next fresh worker ID for churn joins
	wheel  *protocol.TimerWheel // one timer wheel shared by every node

	// workerRuns and schedRuns count the Run loops the cluster started,
	// restarted and joined nodes' included, that have not returned.
	workerRuns, schedRuns sync.WaitGroup

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
		goRun(&lc.schedRuns, s.Run)
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
			goRun(&lc.workerRuns, w.Run)
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
	return NewWorker(WorkerConfig{
		ID:             id,
		Slots:          lc.cfg.Slots,
		SchedulerAddrs: lc.Addrs,
		Mode:           lc.cfg.Mode,
		TimeScale:      lc.cfg.TimeScale,
		Timers:         lc.wheel,
	})
}

// KillScheduler crashes scheduler i abruptly (Scheduler.Kill): no
// drain, peers see only broken connections. Pair with RestartScheduler.
func (lc *LocalCluster) KillScheduler(i int) {
	lc.Scheds[i].Kill()
}

// RestartScheduler replaces a killed (or stopped) scheduler with a
// fresh instance under the same identity, listening on the SAME address
// so the workers, which re-dial a lost scheduler, find it again on their
// own. The bind is retried briefly: the dead listener's port may take a
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
	goRun(&lc.schedRuns, s.Run)
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
	goRun(&lc.workerRuns, w.Run)
	for i, old := range lc.Workers {
		if old == nil {
			lc.Workers[i] = w
			return i, nil
		}
	}
	lc.Workers = append(lc.Workers, w)
	return len(lc.Workers) - 1, nil
}

// Stop tears the cluster down and returns once every node's loop has
// exited: the workers first, so their drains reach live schedulers, then
// the schedulers, and the shared wheel last, once no node can arm timers.
func (lc *LocalCluster) Stop() {
	for _, w := range lc.Workers {
		if w != nil {
			w.Stop()
		}
	}
	lc.workerRuns.Wait()
	for _, s := range lc.Scheds {
		s.Stop()
	}
	lc.schedRuns.Wait()
	lc.wheel.Stop()
}

// goRun starts a node's Run loop on its own goroutine, counted in runs
// until it returns.
func goRun(runs *sync.WaitGroup, run func()) {
	runs.Add(1)
	go func() {
		defer runs.Done()
		run()
	}()
}
