// Command hopper-sim regenerates the paper's tables and figures and
// runs the robustness scenarios (churn, hetero) through the same
// registry.
//
// Usage:
//
//	hopper-sim -list
//	hopper-sim -experiment fig6 [-scale 1] [-seeds 3] [-workers N] [-v]
//	hopper-sim -experiment churn
//	hopper-sim -all
//	hopper-sim -experiment fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each experiment prints the rows the corresponding paper figure reports;
// DESIGN.md section 3 indexes them. Every simulation runs on the one
// serial event engine; cells run side by side on a worker pool
// (-workers, default GOMAXPROCS) and output is byte-identical whatever
// the parallelism — see DESIGN.md section 4 for the determinism
// contract. -cpuprofile/-memprofile capture pprof profiles of whatever
// ran. Performance is measured by the benchmark in bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/hopper-sim/hopper/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run holds main's body so profile teardown (deferred) survives the
// error paths — os.Exit would skip it and truncate the profiles.
func run() int {
	var (
		exp        = flag.String("experiment", "", "experiment ID to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiment IDs")
		scale      = flag.Float64("scale", 1, "job-count scale factor")
		seeds      = flag.Int("seeds", 3, "independent replays per data point")
		workers    = flag.Int("workers", 0, "max concurrent simulation cells (0 = GOMAXPROCS, 1 = serial)")
		verbose    = flag.Bool("v", false, "log per-run progress")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file (covers the experiment run)")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "-seeds must be at least 1")
		return 2
	}
	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "-scale must be positive")
		return 2
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "-workers must be >= 0 (0 = GOMAXPROCS, 1 = serial)")
		return 2
	}

	h := experiments.Harness{Scale: *scale, Seeds: *seeds, Workers: *workers}
	if *verbose {
		h.Log = os.Stderr
	}

	switch {
	case *all:
		start := time.Now()
		for _, res := range experiments.RunExperiments(h, experiments.Registry) {
			fmt.Print(res.String())
			fmt.Println()
		}
		fmt.Printf("(%d experiments in %.1fs)\n", len(experiments.Registry), time.Since(start).Seconds())
	case *exp != "":
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			return 2
		}
		start := time.Now()
		res := e.Run(h)
		fmt.Print(res.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	default:
		flag.Usage()
		return 2
	}
	return 0
}
