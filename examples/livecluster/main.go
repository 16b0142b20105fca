// Live cluster: boots a real decentralized Hopper cluster on localhost —
// two schedulers and twenty workers as goroutines talking the binary
// wire protocol over TCP — replays a Facebook-profile workload trace
// against it through the load-generation pipeline, and prints the same
// per-size-bin metrics table the simulator harness emits.
//
// This is the same protocol the simulator models (probes, refusable
// offers, late binding, virtual-size piggybacking, speculation races
// settled by Kill frames), running the same internal/protocol state
// machines over real sockets with real concurrency. Task execution is
// emulated by holding a slot for the drawn service time, scaled down so
// the demo finishes in seconds.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/workload"
)

func main() {
	const (
		nSched    = 2
		nWork     = 20
		slots     = 2
		timeScale = 0.004 // 30s mean tasks run in ~120ms of wall clock
	)

	lc, err := live.StartLocalCluster(live.LocalClusterConfig{
		Schedulers: nSched,
		Workers:    nWork,
		Slots:      slots,
		TimeScale:  timeScale,
		Seed:       7,
	})
	if err != nil {
		log.Fatalf("booting cluster: %v", err)
	}
	defer lc.Stop()
	fmt.Printf("booted %d schedulers and %d workers x %d slots on localhost\n", nSched, nWork, slots)
	for i, a := range lc.Addrs {
		fmt.Printf("  scheduler %d on %s\n", i, a)
	}

	// A Facebook-profile trace, size-capped so the demo's 40 slots finish
	// it in seconds at the chosen compression.
	prof := workload.Facebook()
	prof.JobSizeCap = 60
	tr := workload.Generate(workload.Config{
		Profile:           prof,
		NumJobs:           24,
		TargetUtilization: 0.7,
		TotalSlots:        nWork * slots,
		NumMachines:       nWork,
		Seed:              7,
	})
	fmt.Printf("generated %d jobs (%.0f slot-seconds, offered load %.2f)\n\n",
		len(tr.Jobs), tr.TotalWork, tr.OfferedLoad)

	var clients []*live.Client
	for _, a := range lc.Addrs {
		c, err := live.NewClient(a)
		if err != nil {
			log.Fatalf("client: %v", err)
		}
		clients = append(clients, c)
	}

	run, led, err := live.Drive(clients, live.TraceArrivals(tr.Jobs, timeScale, 1), 2*time.Minute)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	if led.Completed != led.Submitted {
		log.Fatalf("replay: %d of %d jobs complete (%d aborted, %d unreported)",
			led.Completed, led.Submitted, led.Aborted, led.Unreported)
	}

	fmt.Print(metrics.BinBreakdown("live replay: facebook profile, 2 schedulers / 20 workers", run).String())
	fmt.Printf("\n%d speculative copies launched; %.1fs wall clock for %.0fs of virtual workload\n",
		led.SpecCopies, led.WallTime.Seconds(), tr.Horizon)

	crashRestartDrill(lc)
}

// crashRestartDrill kills scheduler 0 mid-workload and restarts it on
// the same address. Workers keep their in-flight copies running, re-dial
// on their own, and re-register with a running-copy + lost-reservation
// inventory; resubmitting the lost jobs then adopts that work instead of
// re-placing it. The printed counters show the recovery happening.
func crashRestartDrill(lc *live.LocalCluster) {
	const (
		nJobs   = 6
		nTasks  = 8
		meanDur = 30.0 // virtual seconds; ~120ms of wall clock each
	)
	fmt.Println("\n--- scheduler crash/restart drill ---")

	c1, err := live.NewClient(lc.Addrs[0])
	if err != nil {
		log.Fatalf("drill client: %v", err)
	}
	// The same jobs, all due at once, are the resubmission after restart.
	jobs := make([]live.Arrival, nJobs)
	for i := range jobs {
		jobs[i].Job = live.SimpleJob(uint64(9000+i), fmt.Sprintf("drill-%d", i), nTasks, meanDur)
		if err := c1.Submit(jobs[i].Job); err != nil {
			log.Fatalf("drill submit: %v", err)
		}
	}
	time.Sleep(60 * time.Millisecond) // first placement wave is in flight

	fmt.Printf("killing scheduler 0 with %d jobs in flight (no drain — connections just break)\n", nJobs)
	lc.KillScheduler(0)
	c1.Close()
	if err := lc.RestartScheduler(0); err != nil {
		log.Fatalf("drill restart: %v", err)
	}
	fmt.Printf("scheduler 0 restarted on %s; workers re-dial and re-register with their inventory\n", lc.Addrs[0])

	c2, err := live.NewClient(lc.Addrs[0])
	if err != nil {
		log.Fatalf("drill client 2: %v", err)
	}
	// Give the workers one redial period to re-register, then resubmit
	// the lost jobs from a fresh client.
	time.Sleep(120 * time.Millisecond)
	_, led, err := live.Drive([]*live.Client{c2}, jobs, 30*time.Second)
	if err != nil {
		log.Fatalf("drill resubmit: %v", err)
	}
	if led.Completed != nJobs {
		log.Fatalf("drill: %d of %d jobs completed after the restart (%d aborted, %d unreported)",
			led.Completed, nJobs, led.Aborted, led.Unreported)
	}
	st := lc.Scheds[0].Stats()
	fmt.Printf("all %d jobs completed after the restart\n", nJobs)
	fmt.Printf("recovery counters: %d running copies reconciled, %d lost reservations reported, %d requeues, %d occupancy leaks\n",
		st.ReconciledCopies, st.ReconciledReservations, st.Requeues, st.OccupancyLeaks)
}
