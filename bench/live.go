package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
	"github.com/hopper-sim/hopper/internal/workload"
)

// liveSpec sizes the live workload. Like a simulated workload's trace,
// the job templates are part of the workload's definition and come from
// templateSeed; --seed drives the arrival times, the choice of template
// for each arrival, and the cluster's service-time draws.
type liveSpec struct {
	schedulers, workers, slots int
	timeScale                  float64
	rate                       float64 // jobs per second, open loop
	templates                  int
	templateSeed               int64
	drain                      time.Duration
	boots                      int
}

// liveOpenLoop is the workload as BENCHMARK.json describes it. The rate
// keeps the process near half a core on the reference box, about half
// the rate at which job latency starts to climb.
var liveOpenLoop = liveSpec{
	schedulers: 2, workers: 200, slots: 4, timeScale: 0.25,
	rate: 40, templates: 64, templateSeed: 7010,
	drain: 30 * time.Second, boots: 25,
}

func (s liveSpec) smoke() liveSpec {
	s.workers, s.rate, s.boots, s.drain = 8, 4, 2, 10*time.Second
	return s
}

func (s liveSpec) sizes() string {
	return fmt.Sprintf("schedulers=%d workers=%d slots=%d time_scale=%g rate=%g/s templates=%d template_seed=%d",
		s.schedulers, s.workers, s.slots*s.workers, s.timeScale, s.rate, s.templates, s.templateSeed)
}

// jobTemplates renders the workload's job shapes to their wire form
// once; a submission changes only the job ID.
func (s liveSpec) jobTemplates() []*wire.SubmitJob {
	p := workload.Sparkify(workload.Facebook())
	p.JobSizeCap = 20
	tr := workload.Generate(workload.Config{
		Profile:           p,
		NumJobs:           s.templates,
		TargetUtilization: 0.7,
		TotalSlots:        s.workers * s.slots,
		NumMachines:       s.workers,
		Seed:              s.templateSeed,
	})
	out := make([]*wire.SubmitJob, len(tr.Jobs))
	for i, j := range tr.Jobs {
		out[i] = live.SubmitFromJob(j)
	}
	return out
}

// liveCluster is a booted cluster with one client per scheduler.
type liveCluster struct {
	lc      *live.LocalCluster
	clients []*live.Client
	once    sync.Once
}

// boot starts the cluster and dials its schedulers.
func (s liveSpec) boot(seed int64) (*liveCluster, error) {
	lc, err := live.StartLocalCluster(live.LocalClusterConfig{
		Schedulers: s.schedulers, Workers: s.workers, Slots: s.slots,
		Mode: protocol.ModeHopper, TimeScale: s.timeScale, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("booting cluster: %w", err)
	}
	c := &liveCluster{lc: lc}
	for _, a := range lc.Addrs {
		cl, err := live.NewClient(a)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("dialing scheduler: %w", err)
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// stop closes the clients and stops every node; it returns once the
// cluster's goroutines have been told to end and its sockets are closed.
func (c *liveCluster) stop() {
	c.once.Do(func() {
		for _, cl := range c.clients {
			cl.Close()
		}
		c.lc.Stop()
	})
}

// liveJobBase is the first job ID of a window, above any template's.
const liveJobBase uint64 = 1 << 40

// windowResult is one open-loop window, drained.
type windowResult struct {
	submitted, completed, aborted, unreported int
	copies                                    int       // copies run by completed jobs
	spanSeconds                               float64   // spent recording spans
	jobMs                                     []float64 // due -> completion seen by the client
	lateMs                                    []float64 // due -> Submit called
	submitNs                                  float64   // mean time inside Client.Submit
}

// openLoop submits jobs on a Poisson schedule for window, whatever the
// cluster does with them, then waits for the stragglers. A job's clock
// starts when it was due, not when it was sent, so a stalled generator
// shows as latency instead of hiding it.
func (s liveSpec) openLoop(c *liveCluster, tmpl []*wire.SubmitJob, rate float64, window, drain time.Duration, seed int64, tc *tracer, parent int) (*windowResult, error) {
	// Arrivals are a Poisson process conditioned on its count: exactly
	// rate*window jobs at independent uniform times, so every seed offers
	// the same load and differs in when it arrives. Templates are dealt
	// in shuffled rounds for the same reason: every seed submits the same
	// mix of job shapes, in a different order.
	rng := rand.New(rand.NewSource(seed))
	n := max(int(rate*window.Seconds()), 1)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	pick := make([]int, 0, n+len(tmpl))
	for len(pick) < n {
		pick = append(pick, rng.Perm(len(tmpl))...)
	}

	doneAt := make([]time.Time, n) // each written once, by the collector that saw the job
	var copies, completed, aborted atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range c.clients {
		wg.Add(1)
		go func(cl *live.Client) {
			defer wg.Done()
			for {
				jc, err := cl.WaitAny()
				if err != nil {
					return // closed: the window is over
				}
				now := time.Now()
				i := int(jc.JobID - liveJobBase)
				if jc.JobID < liveJobBase || i >= n || !doneAt[i].IsZero() {
					continue
				}
				doneAt[i] = now
				if jc.Aborted {
					aborted.Add(1)
					continue
				}
				copies.Add(int64(jc.TasksRun + jc.SpecCopies))
				completed.Add(1)
			}
		}(cl)
	}

	res := &windowResult{submitted: n, lateMs: make([]float64, n)}
	start := time.Now()
	var submitTook, spanTook time.Duration
	var submitErr error
	for i := 0; i < n && submitErr == nil; i++ {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		m := *tmpl[pick[i]]
		m.JobID = liveJobBase + uint64(i)
		t0 := time.Now()
		submitErr = c.clients[i%len(c.clients)].Submit(&m)
		t1 := time.Now()
		res.lateMs[i] = t0.Sub(at).Seconds() * 1e3
		submitTook += t1.Sub(t0)
		if tc != nil {
			tc.leaf("live.Client.Submit", parent, t0, t1)
			spanTook += time.Since(t1)
		}
	}
	res.submitNs = float64(submitTook.Nanoseconds()) / float64(n)
	res.spanSeconds = spanTook.Seconds()

	deadline := time.Now().Add(drain)
	for submitErr == nil && int(completed.Load()+aborted.Load()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Collectors block in Recv; only a closed connection ends them.
	for _, cl := range c.clients {
		cl.Close()
	}
	wg.Wait()
	if submitErr != nil {
		return nil, fmt.Errorf("open loop: submit: %w", submitErr)
	}

	res.completed, res.aborted = int(completed.Load()), int(aborted.Load())
	res.unreported = n - res.completed - res.aborted
	res.copies = int(copies.Load())
	for i, t := range doneAt {
		if !t.IsZero() {
			res.jobMs = append(res.jobMs, t.Sub(start.Add(due[i])).Seconds()*1e3)
		}
	}
	return res, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func histMs(h *metrics.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / float64(time.Millisecond)
}

// runLive measures the live-openloop workload.
func runLive(cfg runConfig) (*report, error) {
	spec := liveOpenLoop
	// The window leaves the rest of --seconds to the drain: the slowest
	// jobs take a few seconds to finish after the last arrival.
	window := time.Duration(0.85 * cfg.seconds * float64(time.Second))
	if cfg.smoke {
		spec = spec.smoke()
		window = time.Second
	}
	if cfg.trace {
		// A traced run also climbs the rate ladder and runs the layer
		// drivers; its window is shorter so that it ends when an untraced
		// run does.
		window = window * 2 / 5
	}
	cfg.logf("sizes: %s window=%v", spec.sizes(), window)
	rep := newReport()
	tc := cfg.tracer

	// Set-up: render the templates, boot the cluster, dial it. Timed
	// here once; the repeats come after the window, so that the garbage of
	// clusters nobody used is not in the window's memory high-water mark.
	var tmpl []*wire.SubmitJob
	bootOnce := func() (*liveCluster, float64, error) {
		runtime.GC()
		id := tc.begin("live.StartLocalCluster")
		defer tc.end(id, nil)
		t0 := time.Now()
		tmpl = spec.jobTemplates()
		c, err := spec.boot(cfg.seed)
		return c, time.Since(t0).Seconds(), err
	}
	id := tc.begin("bench.setup")
	c, took, err := bootOnce()
	tc.end(id, nil)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	boots := []float64{took}

	id = tc.begin("bench.open_loop")
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames0, cpu0 := transport.BatchTotals(), cpuSeconds()
	w, err := spec.openLoop(c, tmpl, spec.rate, window, spec.drain, cfg.seed, tc, id)
	if err != nil {
		return nil, err
	}
	// Read the cluster's own counters while it is still up.
	var rounds, roundsPlaced int64
	for _, wk := range c.lc.Workers {
		st := wk.Stats()
		rounds += st.RoundsStarted
		roundsPlaced += st.RoundsPlaced
	}
	place, probe := c.lc.Latency()
	frames1, cpu1 := transport.BatchTotals(), cpuSeconds()
	runtime.ReadMemStats(&after)
	tc.end(id, map[string]float64{"jobs": float64(w.submitted), "copies": float64(w.copies)})

	if w.completed+w.aborted+w.unreported != w.submitted {
		return nil, fmt.Errorf("job ledger open: %d completed + %d aborted + %d unreported != %d submitted",
			w.completed, w.aborted, w.unreported, w.submitted)
	}
	rep.attempted, rep.failed = w.submitted, w.aborted+w.unreported
	if w.copies == 0 {
		return nil, fmt.Errorf("no copy ran: %d submitted, %d aborted, %d unreported", w.submitted, w.aborted, w.unreported)
	}
	dec := float64(w.copies)
	frames := float64(frames1.FramesFlushed - frames0.FramesFlushed)
	rep.set("decisions_per_s", dec/window.Seconds())
	rep.set("events_per_decision", frames/dec)
	rep.set("allocs_per_decision", float64(after.Mallocs-before.Mallocs)/dec)
	rep.set("job_mean_ms", mean(w.jobMs))
	rep.set("job_p50_ms", exactQuantile(w.jobMs, 0.50))
	rep.set("job_p90_ms", exactQuantile(w.jobMs, 0.90))

	rep.set("run.decisions", dec)
	rep.set("run.repetitions", 1)
	rep.set("run.failed_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.set("protocol.msgs_per_decision", frames/dec)
	rep.set("protocol.rounds_per_decision", float64(rounds)/dec)
	rep.set("protocol.round_place_frac", ratio(float64(roundsPlaced), float64(rounds)))
	rep.set("live.job_p99_ms", exactQuantile(w.jobMs, 0.99))
	rep.set("live.place_p50_ms", histMs(place, 0.50))
	rep.set("live.place_p99_ms", histMs(place, 0.99))
	rep.set("live.probe_rtt_p50_ms", histMs(probe, 0.50))
	rep.set("live.probe_rtt_p99_ms", histMs(probe, 0.99))
	rep.set("live.cpu_us_per_decision", 1e6*(cpu1-cpu0)/dec)
	rep.set("live.submit_us", w.submitNs/1e3)
	rep.set("live.gen_late_p99_ms", exactQuantile(w.lateMs, 0.99))
	rep.set("live.gen_late_max_ms", maxOf(w.lateMs))
	rep.set("live.jobs_submitted", float64(w.submitted))
	rep.set("live.jobs_completed", float64(w.completed))
	rep.set("live.aborted", float64(w.aborted))
	rep.set("live.unreported", float64(w.unreported))
	flushes := float64(frames1.OutboxFlushes - frames0.OutboxFlushes)
	rep.set("transport.frames_per_flush", ratio(frames, flushes))
	rep.set("transport.outbox_stalls", float64(frames1.OutboxStalls-frames0.OutboxStalls))
	rep.set("runtime.alloc_bytes_per_decision", float64(after.TotalAlloc-before.TotalAlloc)/dec)
	rep.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	rep.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	rep.set("peak_rss_mb", peakRSSMB())

	id = tc.begin("bench.setup_repeats")
	c.stop()
	for len(boots) < spec.boots {
		extra, took, err := bootOnce()
		if err != nil {
			return nil, err
		}
		extra.stop()
		boots = append(boots, took)
	}
	tc.end(id, nil)
	rep.set("setup_s", minOf(boots))
	rep.set("host.setup_median_s", median(boots))
	rep.set("live.boot_ms_per_worker", 1e3*minOf(boots)/float64(spec.workers))

	if !cfg.trace {
		return rep, nil
	}

	// What the window sent, as far as the counters at the edge of the
	// layers show it: every copy is one Assign and at most one TaskDone,
	// every negotiation round at least one Offer, an offer that got no
	// task a Refuse, and the rest of the frames are Reserves.
	mix := wireMix{assign: w.copies, taskDone: w.copies, offer: int(max(rounds, int64(w.copies)))}
	mix.refuse = mix.offer - mix.assign
	mix.reserve = max(int(frames)-mix.offer-mix.assign-mix.refuse-mix.taskDone, 0)

	id = tc.begin("bench.rate_ladder")
	err = spec.rateLadder(rep, tmpl, window/3, cfg)
	tc.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("rate ladder: %w", err)
	}

	id = tc.begin("bench.layer_drivers")
	err = driveLiveLayers(rep, spec, mix, cfg)
	tc.end(id, nil)
	if err != nil {
		return nil, err
	}
	// The only spans inside the window are the generator's own, one per
	// Submit; what recording them cost is the tracing overhead.
	rep.set("trace.overhead_frac", w.spanSeconds/(cpu1-cpu0))
	return rep, nil
}

// rateLadder runs half, one and two times the workload's rate for step
// each, every step on a fresh cluster so that it inherits no backlog and
// owns its latency histogram. Placement latency is known within
// milliseconds of a submission, so only the last step, which also
// reports its failures, waits for its jobs to finish.
func (s liveSpec) rateLadder(rep *report, tmpl []*wire.SubmitJob, step time.Duration, cfg runConfig) error {
	tc := cfg.tracer
	for i, mult := range []float64{0.5, 1, 2} {
		seed, drain := cfg.seed+int64(i)+1, 500*time.Millisecond
		if i == 2 {
			drain = s.drain
		}
		id := tc.begin("live.StartLocalCluster")
		c, err := s.boot(seed)
		tc.end(id, nil)
		if err != nil {
			return err
		}
		id = tc.begin("bench.ladder_step")
		w, err := s.openLoop(c, tmpl, mult*s.rate, step, drain, seed, nil, 0)
		tc.end(id, map[string]float64{"rate": mult * s.rate})
		place, _ := c.lc.Latency()
		c.stop()
		if err != nil {
			return err
		}
		rep.set(fmt.Sprintf("live.ladder_place_p99_ms_r%d", i+1), histMs(place, 0.99))
		if i == 2 {
			rep.set("live.ladder_failed_frac_r3", ratio(float64(w.aborted+w.unreported), float64(w.submitted)))
		}
	}
	return nil
}
