package live

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// The failure-domain suite: every test runs its cells on the virtual
// cluster (RunVirtual, virtual.go) and holds each run to Check's oracles
// before its own.

// check fails the test with the tag when the run breaks an oracle.
func check(t *testing.T, c *VirtualCluster, tag string) {
	t.Helper()
	if err := c.Check(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

var chaosSeeds = []int64{11, 23, 37}

// faultMatrix is TestChaosFaultMatrix's drop/dup/delay cells of
// ChaosCells, each run across chaosSeeds, with the faults each must
// inject.
var faultMatrix = []struct {
	name                string
	wantDrops, wantDups bool
}{
	{name: "drop-everywhere", wantDrops: true},
	{name: "dup-everywhere", wantDups: true},
	{name: "delay-reorder"},
	{name: "mixed", wantDrops: true, wantDups: true},
}

// chaosCell returns the ChaosCells plan called name, at seed.
func chaosCell(name string, seed int64) ChaosCell {
	for _, c := range ChaosCells {
		if c.Name == name {
			cell := c.Cell
			cell.Seed = seed
			return cell
		}
	}
	panic("no chaos cell " + name)
}

// TestChaosZeroRatesMatchesParity is the zero-rate cell: with nothing
// injected the shipped nodes replay the parity workload without one
// recovery path firing — no offer abandoned, no copy written off, no
// assign rejected, nothing requeued or killed — and every offer sent is
// answered exactly once.
func TestChaosZeroRatesMatchesParity(t *testing.T) {
	c := RunVirtual(chaosCell("zero-rates", 42))
	check(t, c, "zero-rates")
	st, inj := c.Stats(), c.Faults()
	if inj.Dropped+inj.Duplicated+inj.Delayed+inj.PartitionDrops != 0 {
		t.Fatalf("zero-rate injector injected: %+v", inj)
	}
	if st.OfferTimeouts+st.StaleAssigns+st.WatchdogExpiries+st.Requeues+st.OccupancyLeaks != 0 || c.sent(true, wire.TTaskDone) != 0 {
		t.Fatalf("recovery fired with no fault injected: %+v, %d killed task reports", st, c.sent(true, wire.TTaskDone))
	}
	if offers := c.sent(false, wire.TOffer); offers == 0 || offers != c.answerable {
		t.Fatalf("%d offers sent, %d answered", offers, c.answerable)
	}
	if c.sent(true, wire.TAssign) == 0 || c.sent(false, wire.TKill) == 0 {
		t.Fatal("workload raced no speculative copy — scenario too weak")
	}
}

// TestChaosFaultMatrix runs the drop/dup/delay matrix at rates up to 10%
// on every frame type the nodes exchange, across three seeds, and
// enforces the full oracle set on every cell.
func TestChaosFaultMatrix(t *testing.T) {
	for _, cell := range faultMatrix {
		t.Run(cell.name, func(t *testing.T) {
			for _, seed := range chaosSeeds {
				plan := chaosCell(cell.name, seed)
				c := RunVirtual(plan)
				check(t, c, fmt.Sprintf("%s seed %d", cell.name, seed))
				inj := c.Faults()
				if cell.wantDrops && inj.Dropped == 0 {
					t.Fatalf("%s seed %d: no drops injected — cell exercised nothing", cell.name, seed)
				}
				if cell.wantDups && inj.Duplicated == 0 {
					t.Fatalf("%s seed %d: no dups injected — cell exercised nothing", cell.name, seed)
				}
				if plan.Rates.Delay > 0 && inj.Delayed == 0 {
					t.Fatalf("%s seed %d: no delays injected — cell exercised nothing", cell.name, seed)
				}
			}
		})
	}
}

// TestChaosPartitionHealsAndConverges cuts every link mid-run, heals,
// and requires full convergence: reprobes, retries, offer timeouts and
// copy watchdogs must bring the cluster back.
func TestChaosPartitionHealsAndConverges(t *testing.T) {
	var logs [][]sentFrame
	for _, seed := range chaosSeeds {
		c := RunVirtual(chaosCell("partition", seed))
		check(t, c, fmt.Sprintf("partition seed %d", seed))
		inj := c.Faults()
		if inj.PartitionsHealed != 1 {
			t.Fatalf("seed %d: %d partitions healed, want 1", seed, inj.PartitionsHealed)
		}
		if inj.PartitionDrops == 0 {
			t.Fatalf("seed %d: partition window dropped nothing — workload idle during the cut", seed)
		}
		if st := c.Stats(); st.OfferTimeouts == 0 {
			t.Fatalf("seed %d: %d frames cut and no offer timed out", seed, inj.PartitionDrops)
		}
		for i, other := range logs {
			if slices.Equal(other, c.frames) {
				t.Fatalf("seeds %d and %d produced the same frame log — the seed does not reach the run", chaosSeeds[i], seed)
			}
		}
		logs = append(logs, c.frames)
	}
}

// TestChaosRecoveryCountersFire pins that the recovery paths themselves
// are exercised by a drop-heavy run: offers time out, stale or lost
// assigns are written off, and requeues reach the cores' counters.
func TestChaosRecoveryCountersFire(t *testing.T) {
	var timeouts, settles int64
	for _, seed := range chaosSeeds {
		c := RunVirtual(ChaosCell{Seed: seed, Rates: Rates{Drop: 0.1}})
		check(t, c, fmt.Sprintf("recovery seed %d", seed))
		st := c.Stats()
		timeouts += st.OfferTimeouts
		settles += st.StaleAssigns + st.WatchdogExpiries + st.Requeues
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
// get their racing copies, read off the frame log as speculative Assigns.
func TestChaosLostProbesStillSpeculate(t *testing.T) {
	stragglers := 0
	for _, j := range parityJobs(virtualMachines) {
		for _, p := range j.Phases {
			stragglers += (len(p.Tasks) + 4) / 5 // scriptedDuration straggles every fifth original
		}
	}
	for _, seed := range chaosSeeds {
		c := RunVirtual(chaosCell("lost-probes", seed))
		check(t, c, fmt.Sprintf("lost-probes seed %d", seed))
		if c.Faults().Dropped == 0 {
			t.Fatalf("seed %d: no Reserve frame dropped — cell exercised nothing", seed)
		}
		raced := make(map[taskKey]bool)
		for _, f := range c.frames {
			if f.typ == wire.TAssign && f.flag && f.task%5 == 0 {
				raced[taskKey{f.job, f.phase, f.task}] = true
			}
		}
		if stragglers == 0 || len(raced)*10 < stragglers*9 {
			t.Fatalf("seed %d: %d of %d stragglers got a speculative copy with a third of the probes lost", seed, len(raced), stragglers)
		}
	}
}

// TestChaosLostTaskDone drops only completion reports — the frame the
// copy watchdog exists for. A copy whose report vanished holds its
// scheduler-side slot until the deadline; the expiry must send a Kill,
// requeue the task, and the job must still finish with nothing leaked.
func TestChaosLostTaskDone(t *testing.T) {
	for _, seed := range chaosSeeds {
		c := RunVirtual(chaosCell("lost-taskdone", seed))
		check(t, c, fmt.Sprintf("lost-taskdone seed %d", seed))
		st, inj := c.Stats(), c.Faults()
		if inj.Dropped == 0 {
			t.Fatalf("seed %d: no TaskDone dropped — cell exercised nothing", seed)
		}
		if st.WatchdogExpiries == 0 || st.Requeues == 0 {
			t.Fatalf("seed %d: %d reports lost, %d watchdog expiries, %d requeues", seed, inj.Dropped, st.WatchdogExpiries, st.Requeues)
		}
		if st.OfferTimeouts != 0 {
			t.Fatalf("seed %d: %d offers timed out with only TaskDone frames lost", seed, st.OfferTimeouts)
		}
	}
}

// TestChaosLostKill drops only Kill frames. The scheduler settles a race
// when the winner reports and forgets the losers at once; a loser whose
// Kill was lost runs on, frees its slot only when it finishes, and its
// report — for a copy the scheduler no longer knows — must land in the
// stale path: no watchdog, no requeue, no leak.
func TestChaosLostKill(t *testing.T) {
	type copyID struct {
		sched, worker int
		seq           uint64
	}
	for _, seed := range chaosSeeds {
		c := RunVirtual(chaosCell("lost-kill", seed))
		check(t, c, fmt.Sprintf("lost-kill seed %d", seed))
		lostKill, reported := make(map[copyID]bool), make(map[copyID]bool)
		for _, f := range c.frames {
			id := copyID{f.sched, f.worker, f.seq}
			switch {
			case f.typ == wire.TKill && f.fate.Drop:
				lostKill[id] = true
			case f.typ == wire.TTaskDone && !f.flag:
				reported[id] = true
			}
		}
		if len(lostKill) == 0 {
			t.Fatalf("seed %d: no Kill dropped — cell exercised nothing", seed)
		}
		for id := range lostKill {
			if !reported[id] {
				t.Fatalf("seed %d: copy %+v never reported after its Kill was lost", seed, id)
			}
		}
		if st := c.Stats(); st.WatchdogExpiries+st.Requeues+st.OccupancyLeaks+st.OfferTimeouts != 0 {
			t.Fatalf("seed %d: a lost Kill is settled already, yet recovery fired: %+v", seed, st)
		}
	}
}

// TestChaosSameSeedReplays is the replay oracle: a run is a function of
// its seed. Two runs of one seed under mixed faults produce the same
// frame log, frame for frame, fate for fate — so a failing seed can be
// debugged — and two seeds do not.
func TestChaosSameSeedReplays(t *testing.T) {
	mixed := Rates{Drop: 0.1, Dup: 0.1, Delay: 0.3}
	var prev []sentFrame
	for seed := int64(1); seed <= 10; seed++ {
		a := RunVirtual(ChaosCell{Seed: seed, Rates: mixed})
		check(t, a, fmt.Sprintf("replay seed %d", seed))
		b := RunVirtual(ChaosCell{Seed: seed, Rates: mixed})
		if len(a.frames) != len(b.frames) {
			t.Fatalf("seed %d: two runs sent %d and %d frames", seed, len(a.frames), len(b.frames))
		}
		for i := range a.frames {
			if a.frames[i] != b.frames[i] {
				t.Fatalf("seed %d: runs diverge at frame %d:\n first  %+v\n second %+v", seed, i, a.frames[i], b.frames[i])
			}
		}
		if slices.Equal(prev, a.frames) {
			t.Fatalf("seeds %d and %d produced the same frame log", seed-1, seed)
		}
		prev = a.frames
	}
}

// TestChaosWorkerLossMidRace breaks every connection of two workers at
// the first instant the log shows a task raced across them — its
// original on one, a speculative copy on the other — concurrent
// multi-worker loss, in virtual time and replayable from its seed.
// The schedulers learn of the breaks through step, as from a reader
// goroutine, and settle every copy on the two workers. Of the raced pair
// the first loss leaves a live sibling and only rolls back, the second
// requeues, so each task left with no copy requeues exactly once: the
// raced task gets one fresh original and completes on a third worker,
// nothing leaks, and a second run sends the same frames.
func TestChaosWorkerLossMidRace(t *testing.T) {
	type taskKey struct {
		sched int
		job   uint64
		phase uint16
		task  uint32
	}
	type outcome struct {
		c        *VirtualCluster
		lost     [2]int
		raced    taskKey
		cutAt    int // frames logged before the cut
		orphaned int // tasks whose every copy was on the lost workers at the cut
	}
	run := func() outcome {
		var o outcome
		originals := make(map[taskKey]int) // worker of each task's original
		cell := ChaosCell{Seed: 42, onFrame: func(c *VirtualCluster, f sentFrame) {
			if o.cutAt > 0 || f.typ != wire.TAssign {
				return
			}
			k := taskKey{f.sched, f.job, f.phase, f.task}
			if !f.flag {
				originals[k] = f.worker
				return
			}
			w, ok := originals[k]
			if !ok || w == f.worker {
				return
			}
			o.lost, o.raced, o.cutAt = [2]int{w, f.worker}, k, len(c.frames)
			for _, s := range c.scheds {
				o.orphaned += orphanedBy(s, func(id uint32) bool { return int(id) == o.lost[0] || int(id) == o.lost[1] })
			}
			for _, wi := range o.lost {
				for _, p := range c.workers[wi].scheds {
					p.conn.Close()
				}
			}
		}}
		o.c = RunVirtual(cell)
		if o.cutAt == 0 {
			t.Fatal("no task raced across two workers — scenario too weak")
		}
		return o
	}
	o := run()
	c := o.c
	check(t, c, "worker-loss")
	if st := c.Stats(); st.Requeues != int64(o.orphaned) || st.WatchdogExpiries != 0 {
		t.Fatalf("%d requeues for %d tasks left with no copy by losing workers %v, %d copies reached only by the watchdog",
			st.Requeues, o.orphaned, o.lost, st.WatchdogExpiries)
	}
	refills, wonElsewhere := 0, false
	for _, f := range c.frames[o.cutAt:] {
		if (taskKey{f.sched, f.job, f.phase, f.task}) != o.raced {
			continue
		}
		switch {
		case f.typ == wire.TAssign && !f.flag:
			refills++
		case f.typ == wire.TTaskDone && !f.flag && f.worker != o.lost[0] && f.worker != o.lost[1]:
			wonElsewhere = true
		}
	}
	if refills != 1 || !wonElsewhere {
		t.Fatalf("raced task %+v: %d fresh originals after losing workers %v (want 1), completed elsewhere %v", o.raced, refills, o.lost, wonElsewhere)
	}
	if again := run(); !slices.Equal(again.c.frames, c.frames) {
		t.Fatal("a second run of the same loss sent a different frame log")
	}
}

// TestSecondHelloEndsTheConnection sends a second Hello on every link of
// a worker at once, mid-run, right after a scheduler committed a copy to
// it: under a new ID, and under its own ID with another slot count. A
// connection says Hello once, so each scheduler ends the connection as
// if it had broken. The worker leaves the topology and the slot total,
// and its copies settle at once: nothing leaks, no watchdog fires, each
// task left with no copy requeues exactly once, and the run finishes on
// the other workers.
func TestSecondHelloEndsTheConnection(t *testing.T) {
	const id = 0
	for _, tc := range []struct {
		name  string
		hello wire.Hello
	}{
		{"new ID", wire.Hello{Role: wire.RoleWorker, ID: virtualMachines + 100, Slots: virtualSlots}},
		{"same ID, other slots", wire.Hello{Role: wire.RoleWorker, ID: id, Slots: virtualSlots + 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ended []*peer
			orphaned, cut := 0, false
			c := RunVirtual(ChaosCell{Seed: 42, onFrame: func(c *VirtualCluster, f sentFrame) {
				if cut || f.typ != wire.TAssign || f.worker != id {
					return
				}
				cut = true
				c.eng.PostAfter(0, c.turn(func() {
					for _, s := range c.scheds {
						orphaned += orphanedBy(s, func(w uint32) bool { return w == id })
						p, hello := s.workers[id], tc.hello
						ended = append(ended, p)
						s.step(envelope{from: p, msg: &hello})
					}
				}))
			}})
			check(t, c, tc.name)
			st := c.Stats()
			if orphaned == 0 {
				t.Fatal("no task had all its copies on the worker when it said Hello again — scenario too weak")
			}
			if st.OccupancyLeaks != 0 || st.WatchdogExpiries != 0 {
				t.Fatalf("%d occupancy leaks, %d watchdog expiries: the worker's copies were not settled when its connection ended", st.OccupancyLeaks, st.WatchdogExpiries)
			}
			if st.Requeues != int64(orphaned) {
				t.Fatalf("%d requeues for %d tasks left with no copy by worker %d", st.Requeues, orphaned, id)
			}
			for si, s := range c.scheds {
				if !ended[si].conn.(*virtualConn).closed {
					t.Fatalf("scheduler %d left open the connection that said Hello twice", s.cfg.ID)
				}
				if s.workers[id] != nil || s.workers[tc.hello.ID] != nil || slices.Contains(s.workerIDs, id) ||
					len(s.workerIDs) != virtualMachines-1 || s.totalSlots != (virtualMachines-1)*virtualSlots {
					t.Fatalf("scheduler %d topology after a second Hello: worker %v, announced %v, ids %v, slots %d",
						s.cfg.ID, s.workers[id] != nil, s.workers[tc.hello.ID] != nil, s.workerIDs, s.totalSlots)
				}
			}
		})
	}
}

// TestWorkerRestartReplacesItsConnection restarts a worker mid-run, right
// after a scheduler committed a copy to it: a new Worker under the same
// ID greets every scheduler over new links while the old links are still
// up, as a restarted process does before the schedulers see its old
// sockets break. Each scheduler takes the new connection for the old: it
// closes the old one and settles its copies at once (nothing leaks, no
// watchdog fires, each task left with no copy requeues exactly once),
// counts the worker's slots once, and probes and places on the new
// connection. The run passes every oracle and replays from its seed.
func TestWorkerRestartReplacesItsConnection(t *testing.T) {
	const id = 0
	type outcome struct {
		c        *VirtualCluster
		orphaned int
		old      []*virtualConn // each scheduler's end of the old incarnation's link
		fresh    int            // the new incarnation's index in c.workers
	}
	run := func() outcome {
		var o outcome
		cut := false
		o.c = RunVirtual(ChaosCell{Seed: 42, onFrame: func(c *VirtualCluster, f sentFrame) {
			if cut || f.typ != wire.TAssign || f.worker != id {
				return
			}
			cut = true
			c.eng.PostAfter(0, c.turn(func() {
				for _, s := range c.scheds {
					o.old = append(o.old, s.workers[id].conn.(*virtualConn))
				}
				// The new Hellos land one latency from now. Posted first, this
				// runs at that instant just before them: what it counts is
				// what the old incarnation leaves orphaned.
				c.eng.PostAfter(virtualLatency, func() {
					for _, s := range c.scheds {
						o.orphaned += orphanedBy(s, func(w uint32) bool { return w == id })
					}
				})
				o.fresh = len(c.workers)
				conns := make([]transport.Conn, len(c.scheds))
				for si := range c.scheds {
					conns[si] = c.link(si, o.fresh)
				}
				w, err := NewWorkerConns(c.workers[id].cfg, conns)
				if err != nil {
					panic(err)
				}
				c.workers = append(c.workers, w)
			}))
		}})
		return o
	}
	o := run()
	c := o.c
	check(t, c, "worker restart")
	st := c.Stats()
	if o.orphaned == 0 {
		t.Fatal("no task had all its copies on the old incarnation when the new one registered — scenario too weak")
	}
	if st.OccupancyLeaks != 0 || st.WatchdogExpiries != 0 {
		t.Fatalf("%d occupancy leaks, %d watchdog expiries: the old connection's copies were not settled by the restart", st.OccupancyLeaks, st.WatchdogExpiries)
	}
	if st.Requeues != int64(o.orphaned) {
		t.Fatalf("%d requeues for %d tasks left with no copy by restarting worker %d", st.Requeues, o.orphaned, id)
	}
	for si, s := range c.scheds {
		if !o.old[si].closed {
			t.Fatalf("scheduler %d left the restarted worker's old connection open", s.cfg.ID)
		}
		p := s.workers[id]
		if p == nil || p.conn.(*virtualConn).worker != o.fresh ||
			len(s.workerIDs) != virtualMachines || s.totalSlots != virtualMachines*virtualSlots {
			t.Fatalf("scheduler %d topology after the restart: on the new connection %v, ids %v, slots %d",
				s.cfg.ID, p != nil && p.conn.(*virtualConn).worker == o.fresh, s.workerIDs, s.totalSlots)
		}
	}
	probes, placed := 0, 0
	for _, f := range c.frames {
		if f.worker != o.fresh {
			continue
		}
		switch {
		case f.typ == wire.TReserve:
			probes++
		case f.typ == wire.TTaskDone && !f.flag:
			placed++
		}
	}
	if probes == 0 || placed == 0 {
		t.Fatalf("the new connection got %d probes and completed %d copies", probes, placed)
	}
	if again := run(); !slices.Equal(again.c.frames, c.frames) {
		t.Fatal("a second run of the same restart sent a different frame log")
	}
}

// runReplayed runs a cell twice and fails unless the second run sends the
// same frame log as the first.
func runReplayed(t *testing.T, cell ChaosCell, tag string) *VirtualCluster {
	t.Helper()
	c := RunVirtual(cell)
	if again := RunVirtual(cell); !slices.Equal(again.frames, c.frames) {
		t.Fatalf("%s: a second run sent a different frame log", tag)
	}
	return c
}

// restartCells crashes scheduler 0 at 1.5 virtual seconds, with copies of
// its jobs running and reservations for them queued on the workers, and
// restarts it half a second later. The restarted instance knows nothing
// but what the workers' re-registration Hellos report and what the
// resubmissions say, yet it must adopt every reported copy — the copy
// counter equals the scheduler-0 copies on the workers at attach, no task
// of that inventory is placed again as an original — count the
// reservations they held, and finish every job, on every oracle, the same
// way twice.
func restartCells(t *testing.T, lateWorkers bool) {
	t.Helper()
	for _, seed := range chaosSeeds {
		tag := fmt.Sprintf("restart (late workers %v) seed %d", lateWorkers, seed)
		c := runReplayed(t, ChaosCell{Seed: seed, Crash: &CrashPlan{At: 1.5, Down: 0.5, LateWorkers: lateWorkers}}, tag)
		check(t, c, tag)
		copies := 0
		for _, n := range c.inventory {
			copies += n
		}
		st := c.Stats()
		if copies == 0 || st.ReconciledCopies != int64(copies) {
			t.Fatalf("%s: %d copies reconciled, %d of scheduler 0's running on the workers at attach", tag, st.ReconciledCopies, copies)
		}
		if st.ReconciledReservations == 0 {
			t.Fatalf("%s: no reservation reconciled — the workers parked none", tag)
		}
		for _, f := range c.frames {
			if f.typ == wire.TAssign && !f.flag && f.at >= c.restartAt && c.inventory[taskKey{f.job, f.phase, f.task}] > 0 {
				t.Fatalf("%s: task %d/%d/%d, running at restart, placed again at %v", tag, f.job, f.phase, f.task, f.at)
			}
		}
	}
}

// TestChaosSchedulerRestartRecoversInFlightWork: the workers reattach
// first, so their inventory waits for its job's resubmission, which
// adopts it before firing the job's root phases.
func TestChaosSchedulerRestartRecoversInFlightWork(t *testing.T) { restartCells(t, false) }

// TestChaosSchedulerRestartLateWorkers: the jobs are resubmitted first and
// wait for a worker to register; the first Hello's inventory is adopted at
// that admission, and every later one attaches to the admitted job at
// once.
func TestChaosSchedulerRestartLateWorkers(t *testing.T) { restartCells(t, true) }

// TestChaosHeterogeneousClasses runs the zero-fault workload on two
// machine classes that the workers announce in their Hellos: four big
// workers (4 CPU / 8 Mem per slot) and four small ones (1 / 2, half
// speed). Every third job asks 2 CPU / 4 Mem per task, so it must run on
// big workers only, while the small ones still get the rest. Every
// scheduler must read each worker's speed and capacity from its Hello
// exactly as the worker was configured.
func TestChaosHeterogeneousClasses(t *testing.T) {
	for _, seed := range chaosSeeds {
		tag := fmt.Sprintf("hetero seed %d", seed)
		c := runReplayed(t, ChaosCell{Seed: seed, Hetero: true}, tag)
		check(t, c, tag)
		for si, s := range c.scheds {
			for _, w := range c.workers {
				id := w.cfg.ID
				if got := s.workerSpeed(id); got != w.cfg.Speed {
					t.Fatalf("%s: scheduler %d reads worker %d's speed as %v, configured %v", tag, si, id, got, w.cfg.Speed)
				}
				if got := s.workerCap(cluster.MachineID(id)); got != w.cfg.Cap {
					t.Fatalf("%s: scheduler %d reads worker %d's capacity as %+v, configured %+v", tag, si, id, got, w.cfg.Cap)
				}
			}
		}
		small := 0
		for _, f := range c.frames {
			if f.typ != wire.TAssign || f.worker < virtualMachines/2 {
				continue
			}
			if heteroDemanded(f.job) {
				t.Fatalf("%s: job %d's demand assigned to small worker %d", tag, f.job, f.worker)
			}
			small++
		}
		if small == 0 {
			t.Fatalf("%s: the small workers got no work", tag)
		}
	}
}

// orphanedBy counts the tasks of s whose every in-flight copy is on a
// worker gone reports: losing those workers must requeue each once.
func orphanedBy(s *Scheduler, gone func(worker uint32) bool) (n int) {
	kept := make(map[*cluster.Task]bool)
	for k, c := range s.copies {
		kept[c.Task] = kept[c.Task] || !gone(k.worker)
	}
	for _, k := range kept {
		if !k {
			n++
		}
	}
	return n
}
