package decentral

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
)

// sched is the simulator adapter around one protocol.Sched core: it owns
// the core's clock/RNG/topology bindings, the serial message-processing
// queue (busyUntil), and the periodic speculation ticker. All protocol
// decisions live in the core.
type sched struct {
	sys  *System
	id   int
	core *protocol.Sched

	// busyUntil serializes message processing (System.toScheduler).
	busyUntil float64

	tickerOn bool
	tickFn   func() // bound once; restarting the ticker allocates nothing
}

func newSched(sys *System, id int, pcfg protocol.Config) *sched {
	sc := &sched{sys: sys, id: id}
	sc.tickFn = func() {
		if !sc.core.HasJobs() {
			sc.tickerOn = false
			return
		}
		sc.sendProbes(sc.core.ScanSpec())
		sc.sys.ticks.PostAfter(sc.sys.Cfg.CheckInterval, sc.tickFn)
	}
	sc.core = protocol.NewSched(protocol.SchedID(id), pcfg, protocol.SchedEnv{
		Now:           func() float64 { return sys.Eng.Now() },
		Rand:          sys.Eng.Rand(),
		TotalSlots:    func() int { return sys.Exec.Machines.TotalSlots() },
		RandomWorkers: sys.Exec.Machines.RandomSubset,
		WorkerCap:     func(m cluster.MachineID) cluster.Resources { return sys.Exec.Machines.All[m].Cap },
		Stats:         &sys.Stats,
	})
	return sc
}

// admit registers a job with this scheduler and keeps the speculation
// ticker armed.
func (sc *sched) admit(j *cluster.Job) {
	sc.core.Admit(j)
	sc.ensureTicker()
}

// sendProbes realizes the core's probe list as one coalesced simulated
// delivery: every probe of the batch arrives after the same one-way
// latency, so a single event processing them in emission order is
// indistinguishable from one event per probe (engine same-timestamp FIFO
// contract) while costing n-1 fewer events. The probe list is copied
// into the pooled message because the core reuses its buffer on the next
// call.
func (sc *sched) sendProbes(probes []protocol.Probe) {
	if len(probes) == 0 {
		return
	}
	n := int64(len(probes))
	sc.sys.Messages += n
	sc.sys.Probes += n
	sc.sys.ProbeEventsSaved += n - 1
	m := sc.sys.getMsg(&sc.sys.batches)
	m.kind = mProbeBatch
	m.sched = sc
	m.probes = append(m.probes[:0], probes...)
	sc.sys.toWorker.PostArg(sc.sys.Eng.Now()+sc.sys.Cfg.MsgLatency, dispatchMessage, m)
}

// ensureTicker runs the periodic speculation scan for this scheduler.
func (sc *sched) ensureTicker() {
	if sc.tickerOn || !sc.core.NeedsTicker() {
		return
	}
	sc.tickerOn = true
	sc.sys.ticks.PostAfter(sc.sys.Cfg.CheckInterval, sc.tickFn)
}
