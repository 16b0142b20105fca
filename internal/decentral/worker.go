package decentral

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// worker is the simulator adapter around one protocol.Worker core: it
// binds the core to the executor's slot accounting, realizes offer
// actions as pooled simulated messages (scheduler processing delay
// included), and maps retry actions onto engine events.
type worker struct {
	sys  *System
	id   cluster.MachineID
	core *protocol.Worker

	// m is this worker's machine record (bound once; Machines.All is
	// fixed at construction).
	m *cluster.Machine

	// down marks a churned-away machine: it stops offering, probes to it
	// are lost, and replies stamped with an older epoch are dropped. epoch
	// increments on every leave so messages addressed to a previous life
	// of this worker can never reach a fresh core's state.
	down  bool
	epoch int

	// running tracks this worker's live copies so a leave can kill them;
	// maintained only when the system runs a churn driver (trackCopies).
	running []*cluster.Copy

	retryEv *simulator.Event
	retryFn func() // bound once; rearming allocates only the handle
}

func newWorker(sys *System, id cluster.MachineID, pcfg protocol.Config) *worker {
	w := &worker{sys: sys, id: id}
	w.core = w.newCore(pcfg)
	w.retryFn = func() {
		w.retryEv = nil
		w.exec(w.core.RetryFired())
	}
	return w
}

// newCore builds a fresh protocol core for this worker — at
// construction, and again when a churned machine rejoins (a rejoining
// machine has a new worker process: no reservations, no rounds).
func (w *worker) newCore(pcfg protocol.Config) *protocol.Worker {
	sys := w.sys
	// The *Machine is stable (Machines.All is fixed at construction), so
	// bind it once: FreeSlots is the hottest env call (every kick and
	// retry consults it) and the three-hop chase costs a cache miss per
	// call at 100k+ machines.
	m := sys.Exec.Machines.Get(w.id)
	w.m = m
	return protocol.NewWorker(w.id, pcfg, protocol.WorkerEnv{
		Now:       func() float64 { return sys.Eng.Now() },
		Rand:      sys.Eng.Rand(),
		FreeSlots: func() int { return m.Free },
		Cap:       m.Cap,
		Place:     w.place,
		Stats:     &sys.Stats,
		Pool:      &sys.pool,
	})
}

// place runs the accepted task's copy on this worker's machine. It
// returns false when the task finished while the accept was in flight (a
// speculative copy racing its original); the scheduler is notified so its
// occupancy count stays correct.
func (w *worker) place(from protocol.SchedID, rep protocol.Reply) bool {
	t := rep.Task
	sc := w.sys.scheds[from]
	if t.State == cluster.TaskDone {
		m := w.sys.getMsg(&w.sys.msgs)
		m.kind = mPlacementFailed
		m.sched = sc
		m.job = t.Job.ID
		w.sys.Rollbacks++
		w.sys.toScheduler(sc, m)
		return false
	}
	c := w.sys.Exec.PlaceOn(t, w.id, rep.Spec)
	if w.sys.trackCopies {
		w.trackCopy(c)
	}
	// The copy's start and duration are fixed now: the scheduler's victim
	// index keys a task by its oldest live copy, which a speculative copy
	// becomes when it lands on a task whose original was lost.
	sc.core.CopyPlaced(t)
	if w.sys.OnPlace != nil {
		w.sys.OnPlace(t, w.id, rep.Spec)
	}
	return true
}

// trackCopy records a live copy for churn kills, compacting settled
// entries first when the list reaches the machine's slot count (at most
// Slots copies can be live at once, so the list stays O(slots)).
func (w *worker) trackCopy(c *cluster.Copy) {
	if len(w.running) >= w.m.Slots {
		live := w.running[:0]
		for _, rc := range w.running {
			if !rc.Killed && !rc.Won && rc.Task.State != cluster.TaskDone {
				live = append(live, rc)
			}
		}
		w.running = live
	}
	w.running = append(w.running, c)
}

// exec realizes a core action list: offers become pooled messages whose
// replies carry the offer's number back to the core (the reply reuses
// the offer's message object), retry arms become engine events. It
// makes no core call while it walks the list, which is the shared
// pool's and is reused by the next call into any worker core.
func (w *worker) exec(acts []protocol.WAction) {
	for i := range acts {
		a := acts[i]
		switch a.Kind {
		case protocol.WSendOffer:
			sc := w.sys.scheds[a.Sched]
			w.sys.Offers++
			m := w.sys.getMsg(&w.sys.msgs)
			m.kind = mOffer
			m.sched = sc
			m.worker = w
			m.wepoch = w.epoch
			m.free = w.m.Free // load piggyback, as of send time
			m.job = a.Job
			m.refusable = a.Refusable
			m.getTask = a.GetTask
			m.seq = a.Seq
			w.sys.toScheduler(sc, m)
		case protocol.WArmRetry:
			w.retryEv = w.sys.Eng.After(a.Delay, w.retryFn)
		case protocol.WCancelRetry:
			if w.retryEv != nil {
				w.retryEv.Cancel()
				w.retryEv = nil
			}
		}
	}
}
