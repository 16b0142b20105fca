package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/experiments"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// simKind is the scheduler a simulated workload runs under.
type simKind int

const (
	decentralHopper simKind = iota
	decentralLoadCache
	centralHopper
	centralSRPT // the untimed baseline replay of sim-central
)

// simSpec sizes one simulated workload. The trace is part of the
// workload's definition: it is generated from traceSeed, never from
// --seed, which seeds a replay of it (service times, stragglers, probe
// targets, tie-breaks). README.md gives the measurements behind that.
type simSpec struct {
	kind      simKind
	machines  int
	slots     int // per machine; the class table decides when hetero
	jobs      int
	util      float64
	traceSeed int64
	hetero    bool
}

func (s simSpec) smoke() simSpec {
	s.machines, s.jobs = 100, 20
	return s
}

func (s simSpec) decentralized() bool {
	return s.kind == decentralHopper || s.kind == decentralLoadCache
}

// classes is the three-class mix of the old hetero bench tier, scaled
// to the machine count.
func (s simSpec) classes() []cluster.MachineClass {
	small := s.machines / 2
	standard := s.machines * 3 / 10
	big := s.machines - small - standard
	return []cluster.MachineClass{
		{Name: "small", Count: small, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
		{Name: "standard", Count: standard, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: big, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}
}

func (s simSpec) newMachines() *cluster.Machines {
	if s.hetero {
		return cluster.NewMachinesClassed(s.classes())
	}
	return cluster.NewMachines(s.machines, s.slots)
}

func (s simSpec) totalSlots() int {
	if !s.hetero {
		return s.machines * s.slots
	}
	n := 0
	for _, c := range s.classes() {
		n += c.Count * c.Slots
	}
	return n
}

func (s simSpec) sizes() string {
	return fmt.Sprintf("machines=%d slots=%d jobs=%d util=%.2f trace_seed=%d hetero=%t",
		s.machines, s.totalSlots(), s.jobs, s.util, s.traceSeed, s.hetero)
}

// stampHeteroDemand gives jobs zero, small and big resource demand
// round-robin by index: zero fits any slot, small fits every class, big
// fits only the big class. Phases and tasks are stamped together because
// the generator has already expanded phases into tasks.
func stampHeteroDemand(jobs []*cluster.Job) {
	demands := []cluster.Resources{{}, {CPU: 2, Mem: 4}, {CPU: 8, Mem: 16}}
	for i, j := range jobs {
		d := demands[i%len(demands)]
		if d.IsZero() {
			continue
		}
		for _, p := range j.Phases {
			p.Demand = d
			for _, t := range p.Tasks {
				t.Demand = d
			}
		}
	}
}

func (s simSpec) generate() *workload.Trace {
	tr := workload.Generate(workload.Config{
		Profile:           workload.Facebook(),
		NumJobs:           s.jobs,
		TargetUtilization: s.util,
		TotalSlots:        s.totalSlots(),
		NumMachines:       s.machines,
		Seed:              s.traceSeed,
	})
	if s.hetero {
		stampHeteroDemand(tr.Jobs)
	}
	return tr
}

// simRun is one built simulation, ready to run.
type simRun struct {
	eng  *simulator.Engine
	exec *cluster.Executor
	sys  *decentral.System // decentralized kinds
	base *scheduler.Base   // centralized kinds
}

func (r *simRun) completed() []*cluster.Job {
	if r.sys != nil {
		return r.sys.Completed()
	}
	return r.base.Completed()
}

// setupTimes is one set-up's time in seconds, and the steps of it that
// are reported on their own.
type setupTimes struct {
	generate, clone, scheduler, total float64
}

// setup does everything a run needs before its first event fires:
// generate the trace, copy it, build machines, executor and scheduler,
// post the arrivals. tc, when set, gets a span per step and per arrival.
func (s simSpec) setup(kind simKind, simSeed int64, tc *tracer) (*simRun, setupTimes) {
	var st setupTimes
	lap := func(name string, f func()) float64 { // f, timed, as one span
		id := tc.begin(name)
		t0 := time.Now()
		f()
		d := time.Since(t0).Seconds()
		tc.end(id, nil)
		return d
	}
	t0 := time.Now()
	var tr *workload.Trace
	st.generate = lap("workload.Generate", func() { tr = s.generate() })
	var jobs []*cluster.Job
	st.clone = lap("experiments.CloneJobs", func() { jobs = experiments.CloneJobs(tr.Jobs) })

	r := &simRun{}
	lap("cluster.New", func() {
		// The engine seed is simSeed+1, as in experiments.RunScaleBench, so
		// sim-decentral's pinned replay is the old decentral-hopper-1k row.
		r.eng = simulator.New(simSeed + 1)
		r.exec = cluster.NewExecutor(r.eng, s.newMachines(), cluster.DefaultExecModel())
	})
	var arrive func(*cluster.Job)
	arriveSpan := "scheduler.Arrive"
	st.scheduler = lap("scheduler.New", func() {
		ccfg := scheduler.Config{CheckInterval: 1}
		switch kind {
		case decentralHopper:
			r.sys = decentral.New(r.eng, r.exec, decentral.Config{Mode: decentral.ModeHopper, NumSchedulers: 50})
		case decentralLoadCache:
			r.sys = decentral.New(r.eng, r.exec, decentral.Config{
				Mode: decentral.ModeLoadCache, NumSchedulers: 50, ReprobeInterval: 1,
			})
		case centralHopper:
			h := scheduler.NewHopper(r.eng, r.exec, ccfg)
			r.base, arrive = h.Base, h.Arrive
		case centralSRPT:
			h := scheduler.NewSRPT(r.eng, r.exec, ccfg)
			r.base, arrive = h.Base, h.Arrive
		}
		if r.sys != nil {
			arrive, arriveSpan = r.sys.Arrive, "decentral.Arrive"
		}
	})
	lap("simulator.Post", func() {
		for _, j := range jobs {
			job := j
			if tc == nil {
				r.eng.Post(job.Arrival, func() { arrive(job) })
				continue
			}
			r.eng.Post(job.Arrival, func() {
				id := tc.begin(arriveSpan)
				arrive(job)
				tc.end(id, nil)
			})
		}
	})
	st.total = time.Since(t0).Seconds()
	return r, st
}

// simCounters is everything a run counts. Two runs of the same spec and
// seed must agree on all of it, sliced or not.
type simCounters struct {
	Decisions, Events, Messages                         int64
	Probes, Offers, Rollbacks, Rounds, RoundsPlaced     int64
	OccupancyLeaks, DoubleWakeups, ProbeEventsSaved     int64
	SpecCopies, Killed, Local, TasksDone, JobsCompleted int64
	EndTime, SlotSeconds, SpecSlotSeconds, Saturated    float64
	JobSeconds                                          float64 // sum of job durations
}

func (r *simRun) counters() simCounters {
	x := r.exec
	c := simCounters{
		Decisions: int64(x.CopiesStarted), Events: int64(r.eng.Fired),
		SpecCopies: int64(x.SpeculativeCopies), Killed: int64(x.CopiesKilled),
		Local: int64(x.LocalCopies), TasksDone: int64(x.TasksDone),
		EndTime: r.eng.Now(), SlotSeconds: x.SlotSecondsUsed,
		SpecSlotSeconds: x.SpeculativeSlotSeconds, Saturated: x.SaturatedTime,
	}
	if s := r.sys; s != nil {
		c.Messages, c.Probes, c.Offers, c.Rollbacks = s.Messages, s.Probes, s.Offers, s.Rollbacks
		c.Rounds, c.RoundsPlaced = s.RoundsStarted, s.RoundsPlaced
		c.OccupancyLeaks, c.DoubleWakeups = s.OccupancyLeaks, s.DoubleWakeups
		c.ProbeEventsSaved = s.ProbeEventsSaved
	}
	for _, j := range r.completed() {
		c.JobsCompleted++
		c.JobSeconds += j.CompletionTime()
	}
	return c
}

// repResult is one repetition: what it counted and what it cost the host.
type repResult struct {
	counters    simCounters
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	wall        float64
	slices      []float64 // host seconds per slice; nil when unsliced
	peakPending int       // most events queued at a slice boundary
	peakActive  int       // most active jobs at a slice boundary (centralized)
	jobMs       []float64 // simulated job durations
}

// sliceCount is how many RunUntil calls a sliced repetition makes. The
// grid is fixed in simulated time, so slice j is the same events in
// every repetition of a seed.
const sliceCount = 150

// runRep builds and runs the workload once. endTime 0 runs it unsliced
// with one Run call; otherwise the run is cut at endTime·j/sliceCount.
func (s simSpec) runRep(kind simKind, simSeed int64, endTime float64, tc *tracer) repResult {
	r, _ := s.setup(kind, simSeed, tc)
	var res repResult

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if endTime == 0 {
		r.eng.Run()
	} else {
		res.slices = make([]float64, sliceCount)
		prev, last := start, r.counters()
		for j := 0; j < sliceCount; j++ {
			id := tc.begin("simulator.RunUntil")
			if j < sliceCount-1 {
				r.eng.RunUntil(endTime * float64(j+1) / sliceCount)
			} else {
				r.eng.Run()
			}
			now := time.Now()
			res.slices[j] = now.Sub(prev).Seconds()
			res.peakPending = max(res.peakPending, r.eng.Pending())
			if r.base != nil {
				res.peakActive = max(res.peakActive, r.base.ActiveJobs())
			}
			if tc != nil {
				c := r.counters()
				tc.end(id, map[string]float64{
					"events":    float64(c.Events - last.Events),
					"messages":  float64(c.Messages - last.Messages),
					"decisions": float64(c.Decisions - last.Decisions),
				})
				last = c
				now = time.Now()
			}
			prev = now
		}
	}
	res.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	res.counters = r.counters()
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	for _, j := range r.completed() {
		res.jobMs = append(res.jobMs, 1000*j.CompletionTime())
	}
	return res
}

// check is the correctness guard on one repetition's counters.
func (s simSpec) check(c simCounters) error {
	if int(c.JobsCompleted) != s.jobs {
		return fmt.Errorf("%d of %d jobs finished", c.JobsCompleted, s.jobs)
	}
	if c.Messages != c.Probes+2*c.Offers+c.Rollbacks {
		return fmt.Errorf("message ledger open: %d messages != %d probes + 2*%d offers + %d rollbacks",
			c.Messages, c.Probes, c.Offers, c.Rollbacks)
	}
	if c.OccupancyLeaks != 0 || c.DoubleWakeups != 0 {
		return fmt.Errorf("%d occupancy leaks, %d double wakeups", c.OccupancyLeaks, c.DoubleWakeups)
	}
	return nil
}

// mallocTolerance is how far a repetition's malloc count may sit from
// the first sliced repetition's. The simulation's own allocations repeat
// exactly; the runtime adds a few of its own (GC worker start-up, timer
// and profiler bookkeeping) that do not.
const mallocTolerance = 0.001

// reportCounts turns the pinned replay's counters into per-layer metrics.
func reportCounts(rep *report, spec simSpec, c simCounters, T float64) {
	dec := float64(c.Decisions)
	if spec.decentralized() {
		rep.set("protocol.msgs_per_decision", float64(c.Messages)/dec)
		rep.set("protocol.probes_per_decision", float64(c.Probes)/dec)
		rep.set("protocol.offers_per_decision", float64(c.Offers)/dec)
		rep.set("protocol.rollbacks_per_decision", float64(c.Rollbacks)/dec)
		rep.set("protocol.rounds_per_decision", float64(c.Rounds)/dec)
		rep.set("protocol.round_place_frac", ratio(float64(c.RoundsPlaced), float64(c.Rounds)))
		rep.set("protocol.occupancy_leaks", float64(c.OccupancyLeaks))
		rep.set("protocol.double_wakeups", float64(c.DoubleWakeups))
		rep.set("decentral.probe_events_saved_frac", ratio(float64(c.ProbeEventsSaved), float64(c.Probes)))
	} else {
		rep.set("scheduler.hopper_us_per_decision", 1e6*T/dec)
	}
	rep.set("cluster.spec_copy_frac", float64(c.SpecCopies)/dec)
	rep.set("cluster.killed_copy_frac", float64(c.Killed)/dec)
	rep.set("cluster.local_frac", float64(c.Local)/dec)
	rep.set("cluster.saturated_frac", ratio(c.Saturated, c.EndTime))
	rep.set("cluster.spec_slot_seconds_frac", ratio(c.SpecSlotSeconds, c.SlotSeconds))
}

// runSim measures one simulated workload.
//
// Host speed and the work counts are taken on the pinned replay: the
// workload's trace under the simulation seed traceSeed, the same events
// in every repetition of every run, so that two runs differ only by what
// the host did to them. --seed drives one more replay of the same trace,
// the sampled replay, and the simulated job times are read from that
// one: they show what the scheduler does on a replay nobody tuned for.
func runSim(spec simSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	tc := cfg.tracer
	// Set-up repeats at least setups times and for at least setupFor.
	minReps, setups, setupFor := 4, 20, time.Second
	if cfg.smoke {
		spec = spec.smoke()
		minReps, setups, setupFor = 2, 3, 0
	}
	cfg.logf("sizes: %s", spec.sizes())
	pinned := spec.traceSeed

	// Set-up time: the whole of setup, several times over, nothing kept.
	id := tc.begin("bench.setup")
	var sts []setupTimes
	for i, start := 0, time.Now(); i < setups || (time.Since(start) < setupFor && i < 10*setups); i++ {
		runtime.GC()
		var st setupTimes
		if i == 0 {
			_, st = spec.setup(spec.kind, pinned, tc)
		} else {
			_, st = spec.setup(spec.kind, pinned, nil)
		}
		sts = append(sts, st)
	}
	tc.end(id, nil)
	col := func(f func(setupTimes) float64) []float64 {
		v := make([]float64, len(sts))
		for i, st := range sts {
			v[i] = f(st)
		}
		return v
	}
	totals := col(func(st setupTimes) float64 { return st.total })
	rep.set("setup_s", minOf(totals))
	rep.set("host.setup_median_s", median(totals))
	rep.set("workload.generate_us_per_job", 1e6*median(col(func(st setupTimes) float64 { return st.generate }))/float64(spec.jobs))
	rep.set("experiments.clone_us_per_job", 1e6*median(col(func(st setupTimes) float64 { return st.clone }))/float64(spec.jobs))
	buildMs := 1e3 * median(col(func(st setupTimes) float64 { return st.scheduler }))
	if spec.decentralized() {
		rep.set("decentral.build_ms", buildMs)
	} else {
		rep.set("scheduler.build_ms", buildMs)
	}

	// The sampled replay, unsliced and untimed. It also warms the heap.
	id = tc.begin("bench.sampled_replay")
	budget := time.Now()
	sampled := spec.runRep(spec.kind, cfg.seed, 0, nil)
	tc.end(id, nil)
	if err := spec.check(sampled.counters); err != nil {
		return nil, fmt.Errorf("sampled replay (seed %d): %w", cfg.seed, err)
	}
	rep.attempted, rep.failed = spec.jobs, spec.jobs-int(sampled.counters.JobsCompleted)
	rep.set("job_mean_ms", mean(sampled.jobMs))
	rep.set("job_p50_ms", exactQuantile(sampled.jobMs, 0.50))
	rep.set("job_p90_ms", exactQuantile(sampled.jobMs, 0.90))

	// Pinned repetition 0 runs unsliced: it fixes the slice grid and is
	// the reference every sliced repetition must match.
	id = tc.begin("bench.pinned_reps")
	ref := spec.runRep(spec.kind, pinned, 0, nil)
	if err := spec.check(ref.counters); err != nil {
		return nil, err
	}
	if cfg.seed == pinned && sampled.counters != ref.counters {
		return nil, fmt.Errorf("two unsliced runs of seed %d counted %+v and %+v", pinned, sampled.counters, ref.counters)
	}
	var reps []repResult
	for len(reps) < minReps || (!cfg.trace && len(reps) < 64 &&
		time.Since(budget).Seconds()+1.1*ref.wall < cfg.seconds) {
		r := spec.runRep(spec.kind, pinned, ref.counters.EndTime, nil)
		if r.counters != ref.counters {
			return nil, fmt.Errorf("repetition %d (sliced) counted %+v, the unsliced run %+v", len(reps)+1, r.counters, ref.counters)
		}
		if len(reps) > 0 {
			if d := math.Abs(float64(r.mallocs) - float64(reps[0].mallocs)); d > mallocTolerance*float64(reps[0].mallocs) {
				return nil, fmt.Errorf("repetition %d made %d allocations, repetition 1 made %d", len(reps)+1, r.mallocs, reps[0].mallocs)
			}
		}
		reps = append(reps, r)
	}
	tc.end(id, nil)

	c := ref.counters
	dec := float64(c.Decisions)
	slices := make([][]float64, len(reps))
	walls, mallocs := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		slices[i], walls[i], mallocs[i] = r.slices, r.wall, float64(r.mallocs)
	}
	T, spread := fastestSliceComposite(slices)
	last := reps[len(reps)-1]

	rep.set("decisions_per_s", dec/T)
	rep.set("events_per_decision", float64(c.Events)/dec)
	rep.set("allocs_per_decision", median(mallocs)/dec)

	rep.set("run.failed_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.set("run.decisions", dec)
	rep.set("run.repetitions", float64(len(reps)))
	rep.set("run.pinned_job_mean_ms", mean(ref.jobMs))
	rep.set("simulator.ns_per_event", 1e9*T/float64(c.Events))
	rep.set("simulator.peak_pending", float64(last.peakPending))
	reportCounts(rep, spec, c, T)
	rep.set("runtime.alloc_bytes_per_decision", float64(last.allocBytes)/dec)
	rep.set("runtime.gc_cycles", float64(last.gcCycles))
	rep.set("runtime.gc_pause_ms", float64(last.gcPauseNs)/1e6)
	rep.set("host.rep_wall_min_s", minOf(walls))
	rep.set("host.rep_wall_median_s", median(walls))
	rep.set("host.rep_wall_max_s", maxOf(walls))
	rep.set("host.slice_spread", spread)
	rep.set("peak_rss_mb", peakRSSMB())

	if !cfg.trace {
		return rep, nil
	}

	// The traced repetition: the pinned replay once more, with a span
	// around every call the benchmark makes into a layer.
	id = tc.begin("bench.traced_rep")
	traced := spec.runRep(spec.kind, pinned, c.EndTime, tc)
	tc.end(id, nil)
	if traced.counters != c {
		return nil, fmt.Errorf("the traced repetition counted %+v, the untraced ones %+v", traced.counters, c)
	}
	rep.set("trace.overhead_frac", traced.wall/median(walls)-1)
	if spec.decentralized() {
		rep.set("decentral.arrive_us", tc.meanNs("decentral.Arrive")/1e3)
	} else {
		rep.set("scheduler.arrive_us", tc.meanNs("scheduler.Arrive")/1e3)
	}

	if spec.kind == centralHopper {
		// The paper's headline comparison: SRPT on the pinned replay,
		// once, timed only for its own per-decision cost.
		id = tc.begin("bench.srpt_replay")
		srpt := spec.runRep(centralSRPT, pinned, 0, nil)
		tc.end(id, nil)
		if err := spec.check(srpt.counters); err != nil {
			return nil, fmt.Errorf("SRPT replay: %w", err)
		}
		rep.set("scheduler.srpt_us_per_decision", 1e6*srpt.wall/float64(srpt.counters.Decisions))
		rep.set("scheduler.hopper_gain_pct", 100*(1-mean(ref.jobMs)/mean(srpt.jobMs)))
	}

	id = tc.begin("bench.layer_drivers")
	meanRunning := int(c.SlotSeconds / c.EndTime)
	driveSimLayers(rep, spec, last.peakPending, last.peakActive, meanRunning, cfg)
	tc.end(id, nil)
	return rep, nil
}
