// Command bench is this repository's benchmark: four workloads, each one
// process, measured from outside through the exported functions of the
// internal packages. BENCHMARK.json at the repository root lists the
// command, the workloads and every metric; README.md explains them.
//
//	bash bench/run.sh --workload sim-decentral --seed 7003 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the run's
// result. Any wrong output makes the command exit non-zero without one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// runConfig is what a workload is told about the run it is part of.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	tracer  *tracer // nil unless trace
	log     io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildDir is where the benchmark leaves span files; run.sh puts the
// binary and the Go build cache there too. .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run: sim-decentral, sim-loadcache-hetero, sim-central, live-openloop")
		seed       = flag.Int64("seed", -1, "simulation/arrival seed; -1 uses the workload's default (claims also cite default+1000, never used while developing)")
		seconds    = flag.Float64("seconds", 24, "how long the run measures")
		trace      = flag.Int("trace", 0, "1 records spans, runs the layer drivers and reports the per-layer metrics")
		traceOut   = flag.String("trace-out", "", "span file of a traced run (default "+buildDir+"/trace-<workload>.json)")
		smoke      = flag.Bool("smoke", false, "tiny sizes (100 machines, 20 jobs; 8 workers, 1 s), for tests")
		selfcheck  = flag.Bool("selfcheck", false, "run every workload in alternating sets and compare the set medians with the BENCHMARK.json bounds")
		sets       = flag.Int("sets", 2, "sets of runs per workload under -selfcheck")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at the end of the run here")
	)
	flag.Parse()
	// Two busy threads at most: the sandbox has two cores, and a number
	// taken at another setting is another number.
	runtime.GOMAXPROCS(2)

	if *selfcheck {
		if err := runSelfcheck(*sets, *seconds, *smoke, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			os.Exit(1)
		}
		return
	}

	w, err := findWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, log: os.Stdout}
	if cfg.seed < 0 {
		cfg.seed = w.DefaultSeed
	}
	fmt.Printf("bench: workload=%s seed=%d seconds=%g trace=%t smoke=%t %s GOMAXPROCS=%d nproc=%d\n",
		w.Name, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	stopProfile, err := startCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res, err := runWorkload(w, cfg, *traceOut)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err == nil {
		err = writeHeapProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload and shapes what it measured into the
// result line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func runWorkload(w workloadDef, cfg runConfig, spanPath string) (*result, error) {
	if cfg.trace {
		cfg.tracer = newTracer(fmt.Sprintf("%s/seed=%d", w.Name, cfg.seed))
	}
	rep, err := w.Run(cfg)
	if err != nil {
		return nil, err
	}
	if rep.failed != 0 {
		return nil, fmt.Errorf("%d of %d jobs failed", rep.failed, rep.attempted)
	}
	if cfg.trace {
		coverage := cfg.tracer.finish()
		rep.set("trace.coverage_frac", coverage)
		if coverage < 0.95 {
			return nil, fmt.Errorf("top-level spans cover %.1f%% of the traced wall time, want >= 95%%", 100*coverage)
		}
		if spanPath == "" {
			spanPath = filepath.Join(buildDir, "trace-"+w.Name+".json")
		}
		if err := cfg.tracer.write(spanPath); err != nil {
			return nil, err
		}
		cfg.logf("spans: %d written to %s", len(cfg.tracer.spans), spanPath)
	}

	known := map[string]metricDef{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[m.Name] = m
	}
	for _, n := range rep.names() {
		m, ok := known[n]
		if !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared in spec.go", n)
		}
		cfg.logf("  %-40s %16.6g %s", n, rep.vals[n], m.Unit)
	}

	res := &result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	if !cfg.trace {
		for _, m := range endToEnd {
			v, ok := rep.vals[m.Name]
			if !ok || v == 0 {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		return res, nil
	}
	// A layer the workload does not exercise reports 0: the result line
	// carries every per-layer metric, and the lines above only the
	// measured ones.
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{rep.vals[m.Name], m.Unit}
	}
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
