// Command hopper-submit sends jobs to a live scheduler and waits for
// their completions — a minimal load generator for the live cluster.
//
//	hopper-submit -scheduler 127.0.0.1:7070 -jobs 5 -tasks 8 -mean 1.0
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/wire"
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
	defer c.Close()

	start := time.Now()
	for i := 1; i <= *jobs; i++ {
		job := live.SimpleJob(uint64(i), fmt.Sprintf("submit-%d", i), *tasks, *mean)
		if err := c.Submit(job); err != nil {
			log.Fatalf("submit job %d: %v", i, err)
		}
		fmt.Printf("submitted job %d (%d tasks x %.1fs)\n", i, *tasks, *mean)
	}

	// WaitAny blocks until a frame arrives, and a scheduler with no
	// workers never sends one: wait in a goroutine so the deadline fires
	// on a silent scheduler too.
	type completion struct {
		jc  *wire.JobComplete
		err error
	}
	completions := make(chan completion)
	go func() {
		for {
			jc, err := c.WaitAny()
			completions <- completion{jc, err}
			if err != nil {
				return
			}
		}
	}()
	deadline := time.After(*wait)
	for done := 0; done < *jobs; done++ {
		var r completion
		select {
		case <-deadline:
			log.Fatalf("timeout with %d of %d jobs complete", done, *jobs)
		case r = <-completions:
		}
		if r.err != nil {
			log.Fatalf("waiting: %v", r.err)
		}
		fmt.Printf("job %d complete in %.2fs (%d tasks, %d speculative copies)\n",
			r.jc.JobID, r.jc.Completion, r.jc.TasksRun, r.jc.SpecCopies)
	}
	fmt.Printf("all jobs done in %.1fs\n", time.Since(start).Seconds())
}
