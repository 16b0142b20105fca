// Command hopper-worker runs live worker nodes: each registers with
// every scheduler, queues reservations, and late-binds its slots
// through the refusable-offer protocol (Pseudocode 3).
//
// With -n above 1 the process multiplexes that many worker cores
// (consecutive IDs starting at -id), sharing the batched transport
// layer and a single timer wheel — one machine can stand in for
// thousands of cluster nodes.
//
// On SIGINT/SIGTERM the workers drain gracefully: every in-flight copy
// is reported to its scheduler as killed (so the task requeues
// elsewhere) before the connections close.
//
//	hopper-worker -id 0 -slots 16 -schedulers 127.0.0.1:7070,127.0.0.1:7071
//	hopper-worker -id 0 -n 1000 -slots 4 -schedulers 127.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/hopper-sim/hopper/internal/live"
)

func main() {
	var (
		id     = flag.Uint("id", 0, "first worker ID (workers get IDs id..id+n-1)")
		n      = flag.Int("n", 1, "number of multiplexed workers in this process")
		slots  = flag.Int("slots", 4, "task slots per worker")
		scheds = flag.String("schedulers", "127.0.0.1:7070", "comma-separated scheduler addresses")
		scale  = flag.Float64("time-scale", 1.0, "multiplier on task service times (must match schedulers)")
	)
	flag.Parse()

	base := live.WorkerConfig{
		ID:             uint32(*id),
		Slots:          *slots,
		SchedulerAddrs: strings.Split(*scheds, ","),
		TimeScale:      *scale,
	}
	if *n <= 1 {
		// Single worker: keep a per-worker log prefix. Its timers still
		// run on the group's wheel, as every worker's here do.
		base.Logger = log.New(os.Stderr, fmt.Sprintf("worker%d: ", *id), log.Ltime)
	}
	g, err := live.StartWorkerGroup(live.WorkerGroupConfig{Base: base, N: *n})
	if err != nil {
		log.Fatal(err)
	}
	if *n <= 1 {
		fmt.Printf("worker %d up with %d slots, schedulers %s\n", *id, *slots, *scheds)
	} else {
		fmt.Printf("%d workers up (IDs %d..%d, %d slots each), schedulers %s\n",
			*n, *id, *id+uint(*n)-1, *slots, *scheds)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining: reporting in-flight copies as killed")
	g.Stop() // signals every worker, waits for their drains
}
