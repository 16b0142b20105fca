package decentral

import (
	"math/rand"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// Machine churn as a first-class simulator scenario: machines leave the
// cluster at a configurable rate — killing their running copies, losing
// their queued reservations and any messages in flight to them — and
// rejoin later as fresh workers. The recovery machinery is exactly the
// live path's: lost copies roll occupancy back and requeue through
// Sched.CopyLost, lost reservations are re-covered by a periodic
// ReprobeStalled refresh (the live adapter's reprobe ticker, here driven
// by the churn clock because only churn makes the simulator lossy).
//
// The machine pool is fixed (cluster.Machines is sized at construction),
// so churn is modeled as down/up transitions: a leave takes a machine
// out of service, a join brings one back with a brand-new worker core —
// no reservations, no rounds, a fresh process on the same hardware slot.

// ChurnConfig parameterizes EnableChurn.
type ChurnConfig struct {
	// LeaveEvery is the mean simulated seconds between machine-leave
	// events, cluster-wide (exponentially distributed). <= 0 disables
	// churn entirely.
	LeaveEvery float64

	// Downtime is the mean seconds a departed machine stays away before
	// rejoining (exponential). Default 30.
	Downtime float64

	// Seed drives the churn process (victim choice, event spacing),
	// independent of the simulation seed so the same workload can replay
	// under different churn realizations.
	Seed int64
}

// maxDownFrac caps the fraction of machines simultaneously down; a
// leave drawn while at the cap is skipped.
const maxDownFrac = 0.25

// churnReprobeEvery is the period, in simulated seconds, of the
// reservation refresh that re-covers probes lost at departed machines,
// for a system whose Config.ReprobeInterval left the refresh off.
const churnReprobeEvery = 1.0

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Downtime == 0 {
		c.Downtime = 30
	}
	return c
}

// EnableChurn arms the churn process on a freshly built system. Call
// before the engine runs, once.
func (s *System) EnableChurn(cfg ChurnConfig) {
	if cfg.LeaveEvery <= 0 {
		return
	}
	s.churn = cfg.withDefaults()
	s.churnRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	s.trackCopies = true
	if s.reprobeEvery == 0 {
		s.reprobeEvery = churnReprobeEvery
	}
	s.ensureChurnTicks()
}

// ensureChurnTicks (re)arms the leave tick and the reservation-refresh
// tick (the latter also runs churn-free when Config.ReprobeInterval is
// set). Both disarm themselves when no jobs are live — a self-rearming
// event would otherwise keep the engine from ever draining — and Arrive
// calls back here so a job landing after an idle gap restarts them.
func (s *System) ensureChurnTicks() {
	if s.churnRng != nil && !s.churnOn {
		s.churnOn = true
		s.Eng.PostAfter(s.churnGap(), s.churnTick)
	}
	if s.reprobeEvery > 0 && !s.reprobeOn {
		s.reprobeOn = true
		s.Eng.PostAfter(s.reprobeEvery, s.reprobeTick)
	}
}

// churnGap draws the next leave event's spacing.
func (s *System) churnGap() float64 {
	return s.churnRng.ExpFloat64() * s.churn.LeaveEvery
}

// churnTick fires one leave event (skipped at the down cap), schedules
// the departed machine's rejoin, and rearms while jobs are live.
func (s *System) churnTick() {
	if len(s.byJob) == 0 {
		s.churnOn = false
		return
	}
	id := cluster.MachineID(s.churnRng.Intn(len(s.workers)))
	down := int(s.MachinesLeft - s.MachinesJoined)
	if float64(down+1) <= maxDownFrac*float64(len(s.workers)) && !s.workers[id].down {
		s.killMachine(id)
		s.Eng.PostAfter(s.churnRng.ExpFloat64()*s.churn.Downtime, func() { s.reviveMachine(id) })
	}
	s.Eng.PostAfter(s.churnGap(), s.churnTick)
}

// reprobeTick refreshes reservations for every job with unlaunched
// tasks, re-covering probes that died at departed machines.
func (s *System) reprobeTick() {
	if len(s.byJob) == 0 {
		s.reprobeOn = false
		return
	}
	for _, sc := range s.scheds {
		sc.sendProbes(sc.core.ReprobeStalled())
	}
	s.Eng.PostAfter(s.reprobeEvery, s.reprobeTick)
}

// killMachine takes a machine out of service: running copies die (their
// schedulers roll back occupancy and requeue tasks left with no live
// copy, probing away from nothing — the machine is gone, not draining),
// queued reservations and in-flight messages are lost (the down flag and
// epoch stamp drop them at delivery), and the worker stops offering.
func (s *System) killMachine(id cluster.MachineID) {
	w := s.workers[id]
	if w.down {
		return
	}
	w.down = true
	w.epoch++
	if w.retryEv != nil {
		w.retryEv.Cancel()
		w.retryEv = nil
	}
	s.MachinesLeft++
	for _, c := range w.running {
		if !s.Exec.KillCopy(c) {
			continue // already settled
		}
		s.CopiesLost++
		t := c.Task
		sc := s.byJob[t.Job.ID]
		if sc == nil {
			continue
		}
		sc.sendProbes(sc.core.CopyLost(t))
	}
	w.running = w.running[:0]
}

// reviveMachine brings a departed machine back as a fresh worker: a new
// core (no reservations carry over — the process is new) that starts
// pulling immediately. Idempotent; a no-op if the machine is up.
func (s *System) reviveMachine(id cluster.MachineID) {
	w := s.workers[id]
	if !w.down {
		return
	}
	w.down = false
	w.epoch++
	w.core = w.newCore(s.pcfg)
	s.MachinesJoined++
	w.exec(w.core.Kick())
}
