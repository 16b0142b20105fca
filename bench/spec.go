package main

import (
	"fmt"
	"sort"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, on every workload.
// Simulated workloads report simulated job times and host speed;
// live-openloop reports wall-clock job times. README.md explains each
// bound from the seed-to-seed spread measured when the benchmark was
// written.
var endToEnd = []metricDef{
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"events_per_decision", "count", "lower", 0.05},
	{"allocs_per_decision", "count", "lower", 0.05},
	{"job_mean_ms", "ms", "lower", 0.20},
	{"job_p50_ms", "ms", "lower", 0.20},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one layer's work, time or waste; layers are this repo's
// packages. A workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{Name: "run.decisions", Unit: "count", Better: "higher"},
	{Name: "run.repetitions", Unit: "count", Better: "higher"},
	{Name: "run.failed_frac", Unit: "frac", Better: "lower"},
	{Name: "run.pinned_job_mean_ms", Unit: "ms", Better: "lower"},

	{Name: "simulator.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simulator.queue_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "simulator.peak_pending", Unit: "count", Better: "lower"},

	{Name: "protocol.msgs_per_decision", Unit: "count", Better: "lower"},
	{Name: "protocol.probes_per_decision", Unit: "count", Better: "lower"},
	{Name: "protocol.offers_per_decision", Unit: "count", Better: "lower"},
	{Name: "protocol.rollbacks_per_decision", Unit: "count", Better: "lower"},
	{Name: "protocol.rounds_per_decision", Unit: "count", Better: "lower"},
	{Name: "protocol.round_place_frac", Unit: "frac", Better: "higher"},
	{Name: "protocol.occupancy_leaks", Unit: "count", Better: "lower"},
	{Name: "protocol.double_wakeups", Unit: "count", Better: "lower"},
	{Name: "protocol.handle_offer_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.phase_runnable_ns_per_probe", Unit: "ns", Better: "lower"},
	{Name: "protocol.add_reservation_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.loadcache_targets_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.loadcache_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.timerwheel_arm_ns", Unit: "ns", Better: "lower"},

	{Name: "decentral.arrive_us", Unit: "us", Better: "lower"},
	{Name: "decentral.probe_events_saved_frac", Unit: "frac", Better: "higher"},
	{Name: "decentral.build_ms", Unit: "ms", Better: "lower"},

	{Name: "scheduler.arrive_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.hopper_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "scheduler.srpt_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "scheduler.hopper_gain_pct", Unit: "%", Better: "higher"},
	{Name: "scheduler.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocate_us", Unit: "us", Better: "lower"},
	{Name: "speculation.scan_us", Unit: "us", Better: "lower"},
	{Name: "speculation.best_victim_ns", Unit: "ns", Better: "lower"},

	{Name: "cluster.spec_copy_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.killed_copy_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.local_frac", Unit: "frac", Better: "higher"},
	{Name: "cluster.saturated_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.spec_slot_seconds_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.place_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.subset_ns_per_target", Unit: "ns", Better: "lower"},

	{Name: "workload.generate_us_per_job", Unit: "us", Better: "lower"},
	{Name: "experiments.clone_us_per_job", Unit: "us", Better: "lower"},

	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"},

	{Name: "transport.frames_per_flush", Unit: "count", Better: "higher"},
	{Name: "transport.outbox_stalls", Unit: "count", Better: "lower"},
	{Name: "transport.loopback_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.mempair_msgs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "live.job_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.place_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.place_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.probe_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.probe_rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.cpu_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "live.submit_us", Unit: "us", Better: "lower"},
	{Name: "live.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.gen_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "live.jobs_submitted", Unit: "count", Better: "higher"},
	{Name: "live.jobs_completed", Unit: "count", Better: "higher"},
	{Name: "live.aborted", Unit: "count", Better: "lower"},
	{Name: "live.unreported", Unit: "count", Better: "lower"},
	{Name: "live.boot_ms_per_worker", Unit: "ms", Better: "lower"},
	{Name: "live.ladder_place_p99_ms_r1", Unit: "ms", Better: "lower"},
	{Name: "live.ladder_place_p99_ms_r2", Unit: "ms", Better: "lower"},
	{Name: "live.ladder_place_p99_ms_r3", Unit: "ms", Better: "lower"},
	{Name: "live.ladder_failed_frac_r3", Unit: "frac", Better: "lower"},

	{Name: "metrics.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_decision", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "host.rep_wall_min_s", Unit: "s", Better: "lower"},
	{Name: "host.rep_wall_median_s", Unit: "s", Better: "lower"},
	{Name: "host.rep_wall_max_s", Unit: "s", Better: "lower"},
	{Name: "host.slice_spread", Unit: "ratio", Better: "lower"},
	{Name: "host.setup_median_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "frac", Better: "higher"},
}

// workloadDef is one workload: its BENCHMARK.json row and how to run it.
type workloadDef struct {
	Name        string
	Why         string
	DefaultSeed int64
	Run         func(cfg runConfig) (*report, error)
}

var workloads = []workloadDef{
	{
		Name:        "sim-decentral",
		Why:         "decentralized Hopper (50 schedulers, random d=4 probing) on 1000x4 slots, 140 jobs, util 0.7: ~250 events and ~230 messages per placed copy; simulator, decentral, protocol do the work, scheduler none",
		DefaultSeed: 7003,
		Run: func(cfg runConfig) (*report, error) {
			return runSim(simSpec{kind: decentralHopper,
				machines: 1000, slots: 4, jobs: 140, util: 0.7, traceSeed: 7003}, cfg)
		},
	},
	{
		Name:        "sim-loadcache-hetero",
		Why:         "load-cached probing with the reprobe tick on 2000 machines in 3 classes, 140 jobs in 3 demand sizes: the probe policy is read and written and hand-out is demand-filtered, paths random probing bypasses",
		DefaultSeed: 7007,
		Run: func(cfg runConfig) (*report, error) {
			return runSim(simSpec{kind: decentralLoadCache,
				machines: 2000, jobs: 140, util: 0.7, traceSeed: 7007, hetero: true}, cfg)
		},
	},
	{
		Name:        "sim-central",
		Why:         "centralized Hopper on 4000x4 slots, 700 jobs, util 0.9: one event per decision, no messages; scheduler, core, speculation and cluster do the work; the bypass workload for decentralized changes",
		DefaultSeed: 7001,
		Run: func(cfg runConfig) (*report, error) {
			return runSim(simSpec{kind: centralHopper,
				machines: 4000, slots: 4, jobs: 700, util: 0.9, traceSeed: 7001}, cfg)
		},
	},
	{
		Name:        "live-openloop",
		Why:         "2 schedulers and 200x4-slot workers over loopback TCP, open loop at 40 jobs/s (~940 copies/s, half a core, under the knee): wire, transport, live and the timer wheel do the work, the simulator none",
		DefaultSeed: 7010,
		Run:         runLive,
	},
}

func findWorkload(name string) (workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// report is what one run measured, by metric name.
type report struct {
	attempted, failed int
	vals              map[string]float64
}

func newReport() *report { return &report{vals: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

// names lists what was measured, sorted.
func (r *report) names() []string {
	out := make([]string, 0, len(r.vals))
	for n := range r.vals {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
