// Command hopper-scheduler runs a live Hopper job scheduler: it accepts
// job submissions from hopper-submit or hopper-loadgen and coordinates
// with hopper-worker nodes over the binary wire protocol.
//
// On SIGINT/SIGTERM the scheduler drains gracefully: every pending job
// is failed with an aborted JobComplete before the connections close.
//
//	hopper-scheduler -addr :7070 -id 0 -num-schedulers 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/protocol"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7070", "listen address")
		id     = flag.Uint("id", 0, "scheduler ID")
		nSched = flag.Int("num-schedulers", 1, "cluster-wide scheduler count (fairness floor)")
		beta   = flag.Float64("beta", cluster.DefaultExecModel().Beta, "Pareto tail index of the service-time draws")
		mean   = flag.Float64("mean-task", 1.0, "fallback mean task service time (seconds)")
		scale  = flag.Float64("time-scale", 1.0, "virtual-to-wall time factor (must match workers)")
		seed   = flag.Int64("seed", 1, "service-time RNG seed")
	)
	flag.Parse()

	// The scheduler's clock: the timer wheel every live node runs on.
	wheel := protocol.NewTimerWheel(time.Millisecond, 512)
	defer wheel.Stop()
	s, err := live.NewScheduler(live.SchedulerConfig{
		ID:              uint32(*id),
		Addr:            *addr,
		NumSchedulers:   *nSched,
		Beta:            *beta,
		MeanTaskSeconds: *mean,
		TimeScale:       *scale,
		Seed:            *seed,
		Timers:          wheel,
		Logger:          log.New(os.Stderr, fmt.Sprintf("sched%d: ", *id), log.Ltime),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler %d listening on %s\n", *id, s.Addr())
	done := make(chan struct{})
	go func() {
		s.Run() // drains pending jobs on shutdown
		close(done)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining: failing pending jobs before exit")
	s.Stop()
	<-done
}
