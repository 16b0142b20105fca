// Command hopper-loadgen replays a workload trace against a live Hopper
// cluster at a target time scale and prints the same per-size-bin
// metrics table the simulator harness emits, so live runs and simulator
// figures are directly comparable.
//
// Replay an existing cluster (-workers/-slots describe that cluster:
// they size the generated trace's offered load and replica locality):
//
//	hopper-loadgen -schedulers 127.0.0.1:7070,127.0.0.1:7071 -workers 20 -slots 4 -profile facebook -jobs 40
//
// Or boot an in-process cluster (2 schedulers, 20 workers) and drive it:
//
//	hopper-loadgen -boot -num-schedulers 2 -workers 20 -slots 4 -time-scale 0.01
//
// Traces come from the same generator the figures use (-profile/-util/
// -jobs, deterministic under -seed) or from a JSON trace file written by
// hopper-trace (-trace). With -rate/-duration the trace's jobs are
// templates for an open loop instead. Either way one driver paces the
// submissions and ends the report with a ledger line: submitted =
// completed + aborted + unreported, where unreported jobs had no
// completion within -timeout of the last submission.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/workload"
)

func main() {
	var (
		scheds    = flag.String("schedulers", "", "comma-separated scheduler addresses (omit with -boot)")
		boot      = flag.Bool("boot", false, "boot an in-process cluster instead of dialing one")
		nSched    = flag.Int("num-schedulers", 2, "schedulers to boot (-boot)")
		nWork     = flag.Int("workers", 20, "cluster worker count: booted with -boot, and ALWAYS used to size the trace (offered load, replica locality) — must match the real cluster when dialing")
		slots     = flag.Int("slots", 4, "slots per worker: booted with -boot, and always used to size the trace — must match the real cluster when dialing")
		profile   = flag.String("profile", "facebook", "workload profile: facebook | bing | facebook-spark | bing-spark")
		jobs      = flag.Int("jobs", 40, "jobs to generate")
		util      = flag.Float64("util", 0.7, "target utilization for the generated trace")
		maxTasks  = flag.Int("max-tasks", 200, "cap on tasks per generated job (0 = profile default)")
		tracePath = flag.String("trace", "", "replay a JSON trace file instead of generating")
		timeScale = flag.Float64("time-scale", 0.01, "virtual-to-wall time factor (must match the cluster)")
		arrScale  = flag.Float64("arrival-scale", 1.0, "extra compression of inter-arrival gaps")
		seed      = flag.Int64("seed", 1, "trace generation seed")
		timeout   = flag.Duration("timeout", 5*time.Minute, "how long to wait for completions after the last submission; jobs still missing then are reported as unreported")
		churn     = flag.Float64("churn", 0, "machine churn rate in leaves per virtual minute (requires -boot): workers are killed mid-run and fresh ones join after -churn-down")
		churnDown = flag.Float64("churn-down", 30, "virtual seconds a churned-away worker stays gone before a replacement joins")
		rate      = flag.Float64("rate", 0, "open-loop mode: submit copies of the trace's jobs at this Poisson rate in jobs per wall second, instead of replaying the trace once")
		duration  = flag.Duration("duration", 30*time.Second, "open-loop submission window (with -rate)")
	)
	flag.Parse()
	if *churn > 0 && !*boot {
		log.Fatal("-churn requires -boot (it kills and joins in-process workers)")
	}

	totalSlots := *nWork * *slots
	numMachines := *nWork

	var addrs []string
	var lc *live.LocalCluster
	var booted runtime.MemStats // the process right after boot (-boot only)
	var bootedGoroutines int
	if *boot {
		var err error
		lc, err = live.StartLocalCluster(live.LocalClusterConfig{
			Schedulers: *nSched,
			Workers:    *nWork,
			Slots:      *slots,
			TimeScale:  *timeScale,
			Seed:       *seed,
		})
		if err != nil {
			log.Fatalf("booting cluster: %v", err)
		}
		defer lc.Stop()
		addrs = lc.Addrs
		fmt.Printf("booted %d schedulers / %d workers x %d slots on localhost\n", *nSched, *nWork, *slots)
		runtime.ReadMemStats(&booted)
		bootedGoroutines = runtime.NumGoroutine()
	} else {
		if *scheds == "" {
			log.Fatal("need -schedulers or -boot")
		}
		addrs = strings.Split(*scheds, ",")
		fmt.Printf("dialing %d schedulers; sizing trace for %d workers x %d slots (-workers/-slots must match the cluster)\n",
			len(addrs), *nWork, *slots)
	}

	tr := loadTrace(*tracePath, *profile, *jobs, *util, totalSlots, numMachines, *maxTasks, *seed)
	fmt.Printf("trace: %d jobs, %.0f slot-seconds of work, offered load %.2f of %d slots\n",
		len(tr.Jobs), tr.TotalWork, tr.LoadOn(totalSlots), totalSlots)

	var clients []*live.Client
	for _, a := range addrs {
		c, err := live.NewClient(a)
		if err != nil {
			log.Fatalf("dialing scheduler %s: %v", a, err)
		}
		clients = append(clients, c)
	}

	var churnStop chan struct{}
	var churnDone chan churnSummary
	if *churn > 0 {
		churnStop = make(chan struct{})
		churnDone = make(chan churnSummary, 1)
		fmt.Printf("churn armed: ~%.1f leaves/virtual-min, %gs virtual downtime\n", *churn, *churnDown)
		go runChurn(lc, *churn, *churnDown, *timeScale, *seed, churnStop, churnDone)
	}

	// One driver for both modes: the trace once at its own times, or open
	// loop — templates cloned from the trace at a fixed Poisson rate for a
	// fixed window, however fast the cluster drains them.
	mode := "replay"
	var arrivals []live.Arrival
	if *rate > 0 {
		mode = fmt.Sprintf("open loop at %g jobs/s", *rate)
		arrivals = live.PoissonArrivals(tr.Jobs, *rate, *duration, *seed)
	} else {
		arrivals = live.TraceArrivals(tr.Jobs, *timeScale, *arrScale)
	}
	run, led, err := live.Drive(clients, arrivals, *timeout)
	var churned churnSummary
	if churnStop != nil {
		close(churnStop)
		churned = <-churnDone
	}
	if err != nil {
		log.Fatalf("%s: %v", mode, err)
	}

	title := fmt.Sprintf("live %s: %s profile, %d schedulers, %d workers (time scale %g)",
		mode, *profile, len(addrs), numMachines, *timeScale)
	fmt.Println()
	fmt.Print(metrics.BinBreakdown(title, run).String())
	fmt.Printf("\n%d submitted, %d completed, %d aborted, %d unreported; %d speculative copies, %.1fs wall clock\n",
		led.Submitted, led.Completed, led.Aborted, led.Unreported, led.SpecCopies, led.WallTime.Seconds())

	printClusterCounters(lc, &booted, bootedGoroutines, *churn, churned)
}

// printClusterCounters reports the booted cluster's internals: the
// scheduling-latency table, the protocol/fault counters, what a placed
// copy cost the process in heap objects (against booted, the process
// right after boot) and what the booted process holds (goroutines,
// stacks, heap), and the transport batching totals. No-op when
// dialing an external cluster (nothing in-process to inspect) except
// for the transport totals, which cover this process's client
// connections too.
func printClusterCounters(lc *live.LocalCluster, booted *runtime.MemStats, bootedGoroutines int, churn float64, churned churnSummary) {
	if lc != nil {
		// Scheduling latency, recorded scheduler-side: submission to
		// first task placement (the SLO metric), and Reserve-to-Offer
		// probe round trips.
		place, probe := lc.Latency()
		fmt.Println()
		fmt.Print(metrics.LatencyTable([]metrics.NamedHist{
			{Name: "submit->first-place", Hist: place},
			{Name: "probe rtt", Hist: probe},
		}))

		// Double wakeups and occupancy leaks must stay zero — nonzero is
		// how a live deployment surfaces an accounting bug instead of
		// silently absorbing it. The fault/recovery columns are expected
		// to be nonzero exactly when faults were injected (-churn):
		// requeues for lost copies, watchdog expiries for lost
		// completions, offer timeouts and stale assigns for lost
		// negotiation legs.
		var rounds, placed, offerTO, staleAsn int64
		for _, w := range lc.Workers {
			if w == nil {
				continue // churned away, replacement still pending
			}
			st := w.Stats()
			rounds += st.RoundsStarted
			placed += st.RoundsPlaced
			offerTO += st.OfferTimeouts
			staleAsn += st.StaleAssigns
		}
		tab := &metrics.Table{
			Title:  "protocol + fault/recovery counters (booted cluster)",
			Header: []string{"sched", "requeues", "watchdog", "reconciled", "dbl wake", "occ leaks"},
		}
		for i, sc := range lc.Scheds {
			st := sc.Stats()
			tab.AddF(fmt.Sprintf("%d", i), int(st.Requeues), int(st.WatchdogExpiries),
				int(st.ReconciledCopies+st.ReconciledReservations),
				int(st.DoubleWakeups), int(st.OccupancyLeaks))
		}
		fmt.Println()
		fmt.Print(tab.String())
		fmt.Printf("worker rounds: %d started, %d placed; %d offer timeouts, %d stale assigns\n",
			rounds, placed, offerTO, staleAsn)
		// The whole process — schedulers, workers, clients, the load
		// generator — so the per-copy figure is an upper bound on what
		// the cluster itself allocates.
		var now runtime.MemStats
		runtime.ReadMemStats(&now)
		perCopy := float64(0)
		if placed > 0 {
			perCopy = float64(now.Mallocs-booted.Mallocs) / float64(placed)
		}
		fmt.Printf("process cost: %.1f heap objects allocated per placed copy since boot; after boot %.1f MB heap and %.1f MB stacks in use, %d goroutines\n",
			perCopy, float64(booted.HeapInuse)/(1<<20), float64(booted.StackInuse)/(1<<20), bootedGoroutines)
		if churn > 0 {
			fmt.Printf("churn: %d workers killed, %d joined\n", churned.killed, churned.joined)
		}
	}

	// Transport batching totals (process-wide, all connections).
	bt := transport.BatchTotals()
	framesPer := float64(0)
	if bt.OutboxFlushes > 0 {
		framesPer = float64(bt.FramesFlushed) / float64(bt.OutboxFlushes)
	}
	btab := &metrics.Table{
		Title:  "transport batching (this process)",
		Header: []string{"outbox flushes", "frames flushed", "frames/flush", "outbox stalls"},
	}
	btab.AddF(int(bt.OutboxFlushes), int(bt.FramesFlushed), framesPer, int(bt.OutboxStalls))
	fmt.Println()
	fmt.Print(btab.String())
}

// churnSummary reports what the churn driver did.
type churnSummary struct{ killed, joined int }

// runChurn kills random live workers at the given rate (exponentially
// spaced, expressed in virtual time and scaled to wall clock) and joins
// a fresh replacement for each after the downtime. Lost copies ride the
// scheduler's worker-crash recovery: occupancy rolls back and tasks
// requeue away from the dead machine. A single goroutine owns every
// cluster mutation, and the caller reads the summary only after closing
// stop — so worker churn never races the final counters sweep.
func runChurn(lc *live.LocalCluster, rate, down, timeScale float64, seed int64,
	stop chan struct{}, done chan churnSummary) {
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e)) // "churn"
	gap := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * 60 / rate * timeScale * float64(time.Second))
	}
	downWall := time.Duration(down * timeScale * float64(time.Second))
	total := len(lc.Workers)
	var sum churnSummary
	var joins []time.Time // FIFO, naturally time-ordered (constant downtime)
	nextKill := time.Now().Add(gap())
	for {
		wake := nextKill
		if len(joins) > 0 && joins[0].Before(wake) {
			wake = joins[0]
		}
		select {
		case <-stop:
			done <- sum
			return
		case <-time.After(time.Until(wake)):
		}
		now := time.Now()
		for len(joins) > 0 && !joins[0].After(now) {
			if _, err := lc.AddWorker(); err == nil {
				sum.joined++
			}
			joins = joins[1:]
		}
		if !nextKill.After(now) {
			var alive []int
			for i, w := range lc.Workers {
				if w != nil {
					alive = append(alive, i)
				}
			}
			// Never take more than a quarter of the fleet down at once.
			if len(alive) > total*3/4 {
				lc.KillWorker(alive[rng.Intn(len(alive))])
				sum.killed++
				joins = append(joins, now.Add(downWall))
			}
			nextKill = now.Add(gap())
		}
	}
}

// loadTrace reads or generates the workload.
func loadTrace(path, profile string, jobs int, util float64, totalSlots, numMachines, maxTasks int, seed int64) *workload.Trace {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("opening trace: %v", err)
		}
		defer f.Close()
		tr, err := workload.ReadTrace(f)
		if err != nil {
			log.Fatalf("reading trace: %v", err)
		}
		return tr
	}
	p, ok := workload.ProfileByName(profile)
	if !ok {
		log.Fatalf("unknown profile %q", profile)
	}
	if maxTasks > 0 {
		p.JobSizeCap = maxTasks
	}
	return workload.Generate(workload.Config{
		Profile:           p,
		NumJobs:           jobs,
		TargetUtilization: util,
		TotalSlots:        totalSlots,
		NumMachines:       numMachines,
		Seed:              seed,
	})
}
