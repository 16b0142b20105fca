// Command hopper-submit sends jobs to a live scheduler and waits for
// their completions — a minimal load generator for the live cluster.
// It exits non-zero unless every job completes within -timeout.
//
//	hopper-submit -scheduler 127.0.0.1:7070 -jobs 5 -tasks 8 -mean 1.0
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/hopper-sim/hopper/internal/live"
)

func main() {
	var (
		addr  = flag.String("scheduler", "127.0.0.1:7070", "scheduler address")
		jobs  = flag.Int("jobs", 3, "number of jobs to submit")
		tasks = flag.Int("tasks", 8, "tasks per job")
		mean  = flag.Float64("mean", 1.0, "mean task duration (seconds)")
		wait  = flag.Duration("timeout", 5*time.Minute, "completion timeout")
	)
	flag.Parse()

	c, err := live.NewClient(*addr)
	if err != nil {
		log.Fatal(err)
	}
	arrivals := make([]live.Arrival, *jobs)
	for i := range arrivals {
		arrivals[i].Job = live.SimpleJob(uint64(i+1), fmt.Sprintf("submit-%d", i+1), *tasks, *mean)
	}
	fmt.Printf("submitting %d jobs (%d tasks x %.1fs)\n", *jobs, *tasks, *mean)
	// A scheduler with no workers never answers; the driver still returns
	// once -timeout has passed, with those jobs unreported.
	run, led, err := live.Drive([]*live.Client{c}, arrivals, *wait)
	if err != nil {
		log.Fatal(err)
	}
	for _, j := range run.Jobs {
		fmt.Printf("job %d complete in %.2fs (%d tasks)\n", j.ID, j.Completion, j.Tasks)
	}
	if led.Completed < *jobs {
		log.Fatalf("%d of %d jobs complete: %d aborted, %d unreported after %v",
			led.Completed, *jobs, led.Aborted, led.Unreported, *wait)
	}
	fmt.Printf("all jobs done in %.1fs, %d speculative copies\n", led.WallTime.Seconds(), led.SpecCopies)
}
