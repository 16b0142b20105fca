package live

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// The fault-matrix parity suite: the wire-backed parity harness from
// parity_test.go with a transport.Injector interposed on every message
// path, plus deterministic virtual-time replicas of the live recovery
// machinery (worker offer timeouts, scheduler assign watchdogs, the
// periodic reservation reprobe). The oracles are the exactly-once and
// accounting invariants the protocol must keep NO MATTER what the
// network does:
//
//   - every job completes (no task stranded by a lost frame),
//   - DoubleWakeups == 0 (phase unlocks stay exactly-once),
//   - the message ledger classifies every send (Messages == Probes +
//     Offers + Replies + Rollbacks) and pairs replies 1:1 with
//     delivered offers (Replies == Offers - dropped + duplicated),
//   - OccupancyLeaks <= Rollbacks (a rollback racing JobDone is the only
//     tolerated leak, same bound as the decentral ledger test),
//   - SilentDemand == 0 (a job that said NoDemand hands out nothing it
//     has not probed for since; a lost probe is still a sent one).

// chaosTimings: all in virtual seconds, all comfortably above the
// harness's reply round trip (2*MsgLatency + ProcDelay + injected
// delays) so a healthy exchange never times out spuriously.
const (
	chaosOfferTimeout  = 1.0
	chaosAssignTimeout = 1.0
	chaosReprobeEvery  = 1.0
)

// assignRecord tracks one task hand-out from reply generation until it
// is either delivered (placed or rejected) or written off by the
// watchdog — the deterministic mirror of live.Scheduler's lCopy
// deadline plus the live worker's running-map guard.
type assignRecord struct {
	sc       *wsSched
	rep      protocol.Reply
	task     *cluster.Task
	resolved bool
}

// chaosLayer interposes seeded fault injection on the three harness
// message paths and owns the recovery emulation and the ledger.
type chaosLayer struct {
	reserveInj *transport.Injector
	offerInj   *transport.Injector
	replyInj   *transport.Injector

	// inflight counts unresolved hand-outs per task, so concurrent lost
	// assigns of one task settle into exactly one requeue.
	inflight map[*cluster.Task]int

	// recoveryOn arms the periodic reprobe tick. It is set only when the
	// config can actually lose messages (nonzero rates or a partition
	// window): in a healthy loaded run pendingFresh is routinely nonempty,
	// so an unconditional reprobe would top up reservations the plain
	// harness never sends and break the zero-rate log-identity oracle.
	recoveryOn bool

	// The message ledger, counted at the protocol send sites (before
	// injection, like decentral's counters).
	Messages  int64
	Probes    int64
	Offers    int64
	Replies   int64
	Rollbacks int64
}

func newChaosLayer(seed int64, reserve, offer, reply transport.Rates, delayMin, delayMax float64) *chaosLayer {
	mk := func(r transport.Rates, salt int64) *transport.Injector {
		return transport.NewInjector(transport.FaultConfig{
			Seed:     seed*31 + salt,
			Default:  r,
			DelayMin: delayMin,
			DelayMax: delayMax,
		})
	}
	return &chaosLayer{
		reserveInj: mk(reserve, 1),
		offerInj:   mk(offer, 2),
		replyInj:   mk(reply, 3),
		inflight:   make(map[*cluster.Task]int),
	}
}

func (c *chaosLayer) injectorFor(t wire.MsgType) *transport.Injector {
	switch t {
	case wire.TReserve:
		return c.reserveInj
	case wire.TOffer:
		return c.offerInj
	default:
		return c.replyInj
	}
}

// send counts and judges one protocol send, realizing the verdict as
// zero, one, or two deliveries with their injected delays (in virtual
// seconds — the harness's clock domain).
func (c *chaosLayer) send(t wire.MsgType, deliver func(extra float64)) {
	c.Messages++
	switch t {
	case wire.TReserve:
		c.Probes++
	case wire.TOffer:
		c.Offers++
	default:
		c.Replies++
	}
	f := c.injectorFor(t).Judge(t)
	if f.Drop {
		return
	}
	deliver(f.Delay)
	if f.Dup {
		deliver(f.DupDelay)
	}
}

// armOfferTimeout is the worker offer timeout: if no reply resolves the
// offer in time (dropped offer or dropped reply), the round resumes
// against a synthesized no-task reply — the virtual-time twin of
// Worker.offerTimedOut.
func (c *chaosLayer) armOfferTimeout(s *wireSystem, w *wsWorker, seq uint64) {
	s.eng.After(chaosOfferTimeout, func() {
		po, live := w.tracker.take(seq)
		if !live {
			return // answered in time
		}
		s.stats.OfferTimeouts++
		e := po.entry
		if e.IsZero() {
			e = w.core.EntryFor(po.sched, po.job)
		}
		rep := protocol.Reply{Job: po.job, From: po.sched}
		if po.getTask {
			w.exec(w.core.OnSparrowReply(po.round, e, rep))
		} else {
			w.exec(w.core.OnHopperReply(po.round, e, rep))
		}
	})
}

// newAssign opens an assign record and arms its watchdog: a hand-out
// neither placed nor rejected by the deadline is settled as lost — the
// twin of live.Scheduler's copy deadline sweep.
func (c *chaosLayer) newAssign(s *wireSystem, sc *wsSched, rep protocol.Reply) *assignRecord {
	r := &assignRecord{sc: sc, rep: rep, task: s.taskOf(rep)}
	c.inflight[r.task]++
	s.eng.After(chaosAssignTimeout, func() {
		if r.resolved {
			return
		}
		c.resolve(r)
		s.stats.WatchdogExpiries++
		c.rollback(s, r)
	})
	return r
}

// resolve closes a record (idempotent).
func (c *chaosLayer) resolve(r *assignRecord) {
	if !r.resolved {
		r.resolved = true
		c.inflight[r.task]--
	}
}

// staleAssign is the worker rejecting a hand-out whose offer it already
// abandoned: a duplicate of an assign that DID start is dropped
// silently; an unstarted one rolls back — the twin of the live worker's
// stale-Assign path.
func (c *chaosLayer) staleAssign(s *wireSystem, r *assignRecord) {
	if r.resolved {
		return
	}
	c.resolve(r)
	s.stats.StaleAssigns++
	c.rollback(s, r)
}

// rollback ships the occupancy rollback for a lost hand-out to its
// scheduler and requeues the task if nothing else is running or in
// flight for it — the settlement every lost-assign path converges on.
func (c *chaosLayer) rollback(s *wireSystem, r *assignRecord) {
	c.Messages++
	c.Rollbacks++
	s.toSched(r.sc, func() {
		r.sc.core.PlacementFailed(r.rep.Job)
		t := r.task
		if t != nil && t.State != cluster.TaskDone && t.RunningCopies() == 0 && c.inflight[t] == 0 {
			s.sendProbes(r.sc, r.sc.core.RequeueLost(t))
		}
	})
}

// ensureReprobe arms the periodic reservation refresh for a scheduler —
// the safety net for dropped Reserve frames (live.Scheduler runs the
// same sweep off its maintenance ticker).
func (c *chaosLayer) ensureReprobe(s *wireSystem, sc *wsSched) {
	if !c.recoveryOn || sc.reprobeOn {
		return
	}
	sc.reprobeOn = true
	var tick func()
	tick = func() {
		if !sc.core.HasJobs() {
			sc.reprobeOn = false
			return
		}
		s.sendProbes(sc, sc.core.ReprobeStalled())
		s.eng.PostAfter(chaosReprobeEvery, tick)
	}
	s.eng.PostAfter(chaosReprobeEvery, tick)
}

// runChaosParity replays the parity workload through the wire harness
// with the given per-direction fault rates and optional partition
// window, then enforces every oracle.
type chaosResult struct {
	sys   *wireSystem
	jobs  int
	chaos *chaosLayer
}

func runChaosParity(t *testing.T, seed int64, reserve, offer, reply transport.Rates, partition [2]float64) chaosResult {
	t.Helper()
	const machines, slots = 8, 2
	eng := simulator.New(seed)
	ms := cluster.NewMachines(machines, slots)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	exec.DurationOverride = scriptedDuration
	sys := newWireSystem(eng, exec, parityCfg)
	sys.chaos = newChaosLayer(seed, reserve, offer, reply, 0.01, 0.2)
	none := transport.Rates{}
	sys.chaos.recoveryOn = reserve != none || offer != none || reply != none || partition[1] > partition[0]
	if partition[1] > partition[0] {
		// A whole-link partition across every direction: nothing crosses
		// until the heal, and afterwards reprobes, retries, timeouts, and
		// watchdogs must reconverge the cluster.
		injs := []*transport.Injector{sys.chaos.reserveInj, sys.chaos.offerInj, sys.chaos.replyInj}
		eng.At(partition[0], func() {
			for _, in := range injs {
				in.Partition()
			}
		})
		eng.At(partition[1], func() {
			for _, in := range injs {
				in.Heal()
			}
		})
	}
	jobs := parityJobs(machines)
	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() { sys.arrive(j) })
	}
	eng.Run()
	return chaosResult{sys: sys, jobs: len(jobs), chaos: sys.chaos}
}

// assertChaosOracles enforces the invariant set on a finished chaos run.
func assertChaosOracles(t *testing.T, tag string, res chaosResult) {
	t.Helper()
	sys, c := res.sys, res.chaos
	if sys.done != res.jobs {
		t.Fatalf("%s: completed %d of %d jobs under injection", tag, sys.done, res.jobs)
	}
	for _, j := range sys.jobs {
		for _, p := range j.Phases {
			for _, task := range p.Tasks {
				if task.State != cluster.TaskDone {
					t.Fatalf("%s: job %d phase %d task %d not done", tag, j.ID, p.Index, task.Index)
				}
			}
		}
	}
	if sys.stats.DoubleWakeups != 0 {
		t.Fatalf("%s: %d double wakeups — phase unlock lost exactly-once under faults", tag, sys.stats.DoubleWakeups)
	}
	if got, want := c.Messages, c.Probes+c.Offers+c.Replies+c.Rollbacks; got != want {
		t.Fatalf("%s: ledger does not classify every send: Messages=%d vs Probes=%d+Offers=%d+Replies=%d+Rollbacks=%d=%d",
			tag, got, c.Probes, c.Offers, c.Replies, c.Rollbacks, want)
	}
	ost := c.offerInj.Stats()
	if got, want := c.Replies, c.Offers-ost.Dropped-ost.PartitionDrops+ost.Duplicated; got != want {
		t.Fatalf("%s: replies not 1:1 with delivered offers: Replies=%d, Offers=%d - dropped %d - partition %d + dup %d = %d",
			tag, got, c.Offers, ost.Dropped, ost.PartitionDrops, ost.Duplicated, want)
	}
	if sys.stats.SilentDemand != 0 {
		t.Fatalf("%s: %d tasks handed out for a job that had said NoDemand and not probed since", tag, sys.stats.SilentDemand)
	}
	if sys.stats.OccupancyLeaks > c.Rollbacks {
		t.Fatalf("%s: %d occupancy leaks exceed %d rollbacks", tag, sys.stats.OccupancyLeaks, c.Rollbacks)
	}
	for _, n := range c.inflight {
		if n != 0 {
			t.Fatalf("%s: unresolved assign records at end of run", tag)
		}
	}
}

// TestChaosZeroRatesMatchesParity pins the chaos plumbing itself to
// neutrality: with all rates zero, the injected harness must reproduce
// the plain wire harness's assignment log bit for bit — the recovery
// timers all no-op and nothing about delivery timing shifts.
func TestChaosZeroRatesMatchesParity(t *testing.T) {
	const seed = 42
	base := runWireParity(t, seed, 8, 2)
	res := runChaosParity(t, seed, transport.Rates{}, transport.Rates{}, transport.Rates{}, [2]float64{})
	assertChaosOracles(t, "zero-rates", res)
	if len(base) != len(res.sys.log) {
		t.Fatalf("zero-rate chaos shifted the assignment count: %d vs %d", len(base), len(res.sys.log))
	}
	for i := range base {
		if base[i] != res.sys.log[i] {
			t.Fatalf("zero-rate chaos shifted assignment %d:\n plain %s\n chaos %s", i, base[i], res.sys.log[i])
		}
	}
	// And the zero-fault ledger collapses to the PR 6 identity.
	c := res.chaos
	if c.Replies != c.Offers || c.Rollbacks != 0 {
		t.Fatalf("zero-rate ledger: Replies=%d Offers=%d Rollbacks=%d", c.Replies, c.Offers, c.Rollbacks)
	}
}

// TestChaosFaultMatrix runs the drop/dup/delay matrix at rates up to 10%
// across three seeds and enforces the full oracle set on every cell.
func TestChaosFaultMatrix(t *testing.T) {
	cells := []struct {
		name                  string
		reserve, offer, reply transport.Rates
		wantDrops, wantDups   bool
	}{
		{name: "drop-everywhere",
			reserve: transport.Rates{Drop: 0.1}, offer: transport.Rates{Drop: 0.1}, reply: transport.Rates{Drop: 0.1},
			wantDrops: true},
		{name: "dup-everywhere",
			reserve: transport.Rates{Dup: 0.1}, offer: transport.Rates{Dup: 0.1}, reply: transport.Rates{Dup: 0.1},
			wantDups: true},
		{name: "delay-reorder",
			reserve: transport.Rates{Delay: 0.3}, offer: transport.Rates{Delay: 0.3}, reply: transport.Rates{Delay: 0.3}},
		{name: "mixed",
			reserve:   transport.Rates{Drop: 0.05, Dup: 0.05, Delay: 0.1},
			offer:     transport.Rates{Drop: 0.05, Dup: 0.05, Delay: 0.1},
			reply:     transport.Rates{Drop: 0.05, Dup: 0.05, Delay: 0.1},
			wantDrops: true, wantDups: true},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			for _, seed := range []int64{11, 23, 37} {
				res := runChaosParity(t, seed, cell.reserve, cell.offer, cell.reply, [2]float64{})
				tag := cell.name
				assertChaosOracles(t, tag, res)
				total := func(in *transport.Injector) transport.FaultStats { return in.Stats() }
				drops := total(res.chaos.reserveInj).Dropped + total(res.chaos.offerInj).Dropped + total(res.chaos.replyInj).Dropped
				dups := total(res.chaos.reserveInj).Duplicated + total(res.chaos.offerInj).Duplicated + total(res.chaos.replyInj).Duplicated
				if cell.wantDrops && drops == 0 {
					t.Fatalf("%s seed %d: no drops injected — cell exercised nothing", tag, seed)
				}
				if cell.wantDups && dups == 0 {
					t.Fatalf("%s seed %d: no dups injected — cell exercised nothing", tag, seed)
				}
			}
		})
	}
}

// TestChaosPartitionHealsAndConverges cuts every link mid-run, heals,
// and requires full convergence plus the recovery counters to show the
// machinery actually fired.
func TestChaosPartitionHealsAndConverges(t *testing.T) {
	for _, seed := range []int64{11, 23, 37} {
		res := runChaosParity(t, seed, transport.Rates{}, transport.Rates{}, transport.Rates{}, [2]float64{3.0, 6.0})
		assertChaosOracles(t, "partition", res)
		healed := res.chaos.reserveInj.Stats().PartitionsHealed +
			res.chaos.offerInj.Stats().PartitionsHealed +
			res.chaos.replyInj.Stats().PartitionsHealed
		if healed != 3 {
			t.Fatalf("seed %d: %d partitions healed, want 3", seed, healed)
		}
		pdrops := res.chaos.reserveInj.Stats().PartitionDrops +
			res.chaos.offerInj.Stats().PartitionDrops +
			res.chaos.replyInj.Stats().PartitionDrops
		if pdrops == 0 {
			t.Fatalf("seed %d: partition window dropped nothing — workload idle during the cut", seed)
		}
	}
}

// TestChaosRecoveryCountersFire pins that the recovery paths themselves
// are exercised by a drop-heavy run: offers time out, stale or lost
// assigns are written off, and requeues reach the cores' counters.
func TestChaosRecoveryCountersFire(t *testing.T) {
	var timeouts, settles int64
	for _, seed := range []int64{11, 23, 37} {
		res := runChaosParity(t, seed,
			transport.Rates{Drop: 0.1}, transport.Rates{Drop: 0.1}, transport.Rates{Drop: 0.1}, [2]float64{})
		assertChaosOracles(t, "recovery", res)
		timeouts += res.sys.stats.OfferTimeouts
		settles += res.sys.stats.StaleAssigns + res.sys.stats.WatchdogExpiries + res.sys.stats.Requeues
	}
	if timeouts == 0 {
		t.Fatal("10% drops across three seeds never tripped an offer timeout")
	}
	if settles == 0 {
		t.Fatal("10% drops across three seeds never settled a lost assign")
	}
}

// TestChaosLostProbesStillSpeculate is the loss cell for pushed
// speculation. Workers hold no reservation for a job that last told them
// NoDemand, so a speculation want reaches a worker only by probes — and
// with a third of all Reserve frames dropped, one want in eighty loses
// all four of its own. Later probes for the job and the reservation
// refresh (ReprobeStalled covers a job's oldest live want when it has no
// unlaunched task) must still bring it a slot: the scripted stragglers
// get their racing copies.
func TestChaosLostProbesStillSpeculate(t *testing.T) {
	for _, seed := range []int64{11, 23, 37} {
		res := runChaosParity(t, seed, transport.Rates{Drop: 0.33}, transport.Rates{}, transport.Rates{}, [2]float64{})
		assertChaosOracles(t, "lost-probes", res)
		if res.chaos.reserveInj.Stats().Dropped == 0 {
			t.Fatalf("seed %d: no Reserve frame dropped — cell exercised nothing", seed)
		}
		stragglers, raced := 0, 0
		for _, j := range res.sys.jobs {
			for _, p := range j.Phases {
				for _, task := range p.Tasks {
					if task.Index%5 != 0 {
						continue // scriptedDuration straggles every fifth original
					}
					stragglers++
					for _, c := range task.Copies {
						if c.Speculative {
							raced++
							break
						}
					}
				}
			}
		}
		if stragglers == 0 || raced*10 < stragglers*9 {
			t.Fatalf("seed %d: %d of %d stragglers got a speculative copy with a third of the probes lost", seed, raced, stragglers)
		}
	}
}
