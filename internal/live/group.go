package live

import (
	"fmt"
	"sync"
	"time"

	"github.com/hopper-sim/hopper/internal/protocol"
)

// This file is the worker-multiplexing layer: N protocol.Worker cores in
// one process, sharing the batched transport layer and a single timer
// wheel. Per-worker goroutine timers were the scaling cost of the
// one-process-per-worker shape — every running copy, offer timeout, and
// retry backoff cost a runtime timer, so a thousand-worker process
// carried tens of thousands of timer heap entries. The shared wheel
// runs one ticker goroutine for the whole group; worker event loops and
// connection writers stay per-worker (goroutines are cheap, timers were
// not).

// WorkerGroupConfig sizes a multiplexed worker group.
type WorkerGroupConfig struct {
	// Base is the template config: ID is the group's first worker ID
	// (consecutive IDs follow), and every other field but Timers is
	// shared. The group creates and owns one TimerWheel for all members.
	Base WorkerConfig
	// N is the number of workers to run (default 1).
	N int
}

// WorkerGroup is a running set of multiplexed workers.
type WorkerGroup struct {
	Workers []*Worker

	wheel *protocol.TimerWheel // owned: every member's timers
	runs  sync.WaitGroup       // outstanding Worker.Run loops
}

// StartWorkerGroup boots N workers (each dialing Base.SchedulerAddrs)
// sharing one timer service, and starts their loops. On partial boot
// failure every started worker is stopped before the error returns.
func StartWorkerGroup(cfg WorkerGroupConfig) (*WorkerGroup, error) {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	g := &WorkerGroup{wheel: protocol.NewTimerWheel(time.Millisecond, 512)}
	for i := 0; i < cfg.N; i++ {
		wc := cfg.Base
		wc.ID = cfg.Base.ID + uint32(i)
		wc.Timers = g.wheel
		w, err := NewWorker(wc)
		if err != nil {
			g.Stop()
			return nil, fmt.Errorf("live: booting worker %d of %d: %w", i, cfg.N, err)
		}
		goRun(&g.runs, w.Run)
		g.Workers = append(g.Workers, w)
	}
	return g, nil
}

// Stop drains every worker (in-flight copies report as killed), waits
// for their loops to exit, then stops the owned wheel.
func (g *WorkerGroup) Stop() {
	for _, w := range g.Workers {
		w.Stop()
	}
	g.runs.Wait()
	g.wheel.Stop()
}
