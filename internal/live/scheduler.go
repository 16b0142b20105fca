package live

import (
	"cmp"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// SchedulerConfig configures a live scheduler node.
type SchedulerConfig struct {
	ID uint32
	// Addr is the TCP listen address (":0" picks a port). Leave empty to
	// run without a listener and feed connections via ServeConn (tests over
	// transport.Pair, virtual links).
	Addr string
	// Mode selects the protocol (Hopper by default; the Sparrow baselines
	// also run live via the GetTask pull).
	Mode protocol.Mode
	// NumSchedulers is the cluster-wide scheduler count, used by the
	// fairness floor estimate. Default 1.
	NumSchedulers int
	// Beta is the Pareto tail index service times are drawn with
	// (default cluster.DefaultExecModel().Beta). Live mode draws service
	// times scheduler-side so the straggler race is reproducible; see
	// package docs. Virtual sizes use the estimate, which starts at the
	// shared prior (speculation.Config.BetaPrior), as on both simulator
	// planes.
	Beta float64
	// MeanTaskSeconds is the fallback mean task duration for submitted
	// phases that carry none.
	MeanTaskSeconds float64
	// TimeScale maps virtual protocol seconds to wall seconds (0.05 runs
	// a 20s workload in 1s). Must match the workers'. Default 1.
	TimeScale float64
	// CheckInterval is the speculation scan period in virtual seconds
	// (default protocol.DefaultCheckInterval).
	CheckInterval float64
	// Seed drives the service-time RNG.
	Seed int64
	// DurationOverride, when set, supplies copy service times instead of
	// the heavy-tailed draw — scripted schedules for tests, such as the
	// chaos suite's stragglers.
	DurationOverride func(t *cluster.Task, speculative bool) float64
	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
	// Timers is the scheduler's clock: it arms its timers (maintenance
	// ticker, unlock delays) and is what its virtual time is read from.
	// Nil uses protocol.WallTimers; a cluster hosting many in-process
	// nodes shares one protocol.TimerWheel.
	Timers protocol.TimerService
	// PlaceLatency, when set, receives one wall-clock observation per
	// job: submission to first task placement (the scheduling-latency
	// SLO metric). ProbeLatency receives one observation per answered
	// probe: Reserve sent to the first Offer back from that worker for
	// that job (probe-round RTT). Both may be shared across schedulers —
	// Histogram's record path is concurrency-safe. Nil records into a
	// private histogram nobody reads.
	PlaceLatency *metrics.Histogram
	ProbeLatency *metrics.Histogram
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.NumSchedulers == 0 {
		c.NumSchedulers = 1
	}
	if c.Beta == 0 {
		c.Beta = cluster.DefaultExecModel().Beta
	}
	if c.MeanTaskSeconds == 0 {
		c.MeanTaskSeconds = 1
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = protocol.DefaultCheckInterval
	}
	if c.Timers == nil {
		c.Timers = protocol.WallTimers
	}
	if c.PlaceLatency == nil {
		c.PlaceLatency = &metrics.Histogram{}
	}
	if c.ProbeLatency == nil {
		c.ProbeLatency = &metrics.Histogram{}
	}
	return c
}

// defaultWatchdogGrace is the copy watchdog's slack in virtual seconds:
// how long past a copy's drawn duration the scheduler waits for its
// completion report before declaring the copy lost and requeueing — the
// recovery path for dropped Assign frames, dropped TaskDone reports, and
// silently stalled workers. Generous against report latency
// (milliseconds of wall clock) so a healthy copy never expires; the
// effective grace is additionally floored at one wall-clock second (see
// expireOverdueCopies) so aggressive time compression cannot turn
// scheduling hiccups into phantom losses. A spurious expiry (slow
// report, not a lost one) is safe: the late report finds its copy gone
// and is ignored, at the cost of one redundant placement.
const defaultWatchdogGrace = 5.0

// lJob is scheduler-side job state: the cluster.Job driving the protocol
// core plus submission bookkeeping.
type lJob struct {
	job        *cluster.Job
	client     *peer
	specCopies int

	// submitWall and placed drive the submit→first-placement latency
	// observation: stamped at admission, recorded once by startCopy.
	submitWall time.Time
	placed     bool
	// probeSent stamps the first outstanding Reserve per worker, matched
	// by the first Offer back from that worker for this job (probe-round
	// RTT). Entries die with the job; unanswered probes are never
	// recorded — RTT is a responsiveness metric, not a loss detector.
	probeSent map[uint32]time.Time
}

// copyKey names an in-flight copy on the wire: the worker it runs on and
// that worker's number for the offer that placed it (cluster.Copy's
// Machine and Seq).
type copyKey struct {
	worker uint32
	seq    uint64
}

// Scheduler is a live Hopper job scheduler: a thin adapter that feeds a
// protocol.Sched core from real connections. It accepts job submissions,
// probes workers, answers offers (Pseudocode 2), runs the speculation
// scan, settles copy races with Kill frames, and reports per-job results
// to the submitting client.
type Scheduler struct {
	cfg   SchedulerConfig
	loop  *loop
	ln    *transport.Listener
	rng   *rand.Rand
	model cluster.ExecModel
	core  *protocol.Sched
	stats protocol.Stats
	start time.Time

	// durations draws copy service times on the loop goroutine, keyed
	// under cfg.Seed exactly as the simulator's Executor keys its own.
	durations *cluster.CopySource

	workers    map[uint32]*peer
	workerIDs  []cluster.MachineID // sorted; topology for probe aiming
	totalSlots int

	jobs map[uint64]*lJob
	// copies indexes the running copies by their wire name. The record is
	// the cluster.Copy itself — a task's racing siblings are its Copies —
	// so this is a key index and nothing more.
	copies map[copyKey]*cluster.Copy
	// killLoser is Task.Win's loser consequence on this plane, bound once:
	// a Kill frame to the copy's worker and the key's removal.
	killLoser func(*cluster.Copy)

	// pendingAdmit buffers submissions and pendingProbes buffers probes
	// that arrive while no worker is registered (cluster boot, full
	// outage); both flush when the next worker registers.
	pendingAdmit  []pendingSubmit
	pendingProbes []protocol.Probe

	// tickerOn says the maintenance tick is armed or its event is in
	// flight; ticks counts the ticks since ensureTicker last started it.
	// The timer and the event it posts are built on the first start and
	// re-armed from then on (see ensureTicker).
	tickerOn bool
	ticks    int
	ticker   protocol.Timer
	tickerEv internalEvent

	// spareProbeSent holds the cleared probeSent maps of finished jobs,
	// for the next jobs to stamp their probes in.
	spareProbeSent []map[uint32]time.Time

	// pendingRecon buffers running-copy inventory from worker Hellos for
	// jobs not (re)submitted yet, keyed by job ID: after a crash the
	// workers typically re-register before the clients resubmit, and
	// their copies must attach to the rebuilt job the moment it is
	// admitted — before its root phases fire — or the scheduler
	// double-places the tasks.
	pendingRecon map[uint64][]pendingRecon

	// abrupt marks a Kill() teardown: drain skips the aborted
	// JobComplete protocol and just severs connections, emulating a
	// crash for recovery tests. (Written by Kill's goroutine, read by
	// drain after loop.done closes — the close is the happens-before.)
	abrupt atomic.Bool

	// unlock owns phase wakeup delivery (cluster.UnlockPlanner): unlocks
	// become loop-posted timers and each phase's probes go out exactly
	// once.
	unlock cluster.UnlockPlanner

	// out is the scratch every per-frame message this node sends is built
	// in: the loop is single-threaded and transport.Conn.Send is done with
	// a message when it returns, so one value per type serves every send.
	out struct {
		replyFrames
		reserve wire.Reserve
		kill    wire.Kill
	}
}

// pendingSubmit is one buffered submission with its submitter.
type pendingSubmit struct {
	msg  *wire.SubmitJob
	from *peer
}

// pendingRecon is one stashed running-copy report awaiting its job's
// (re)submission.
type pendingRecon struct {
	workerID uint32
	rc       wire.RunningCopy
}

// maxTasksPerPhase / maxTasksPerJob bound client-supplied job shapes:
// far above any paper workload (job sizes cap at a few thousand tasks)
// while keeping a single malicious frame — one huge phase, or thousands
// of large ones — from allocating gigabytes of task state. Totals are
// validated before anything is allocated.
const (
	maxTasksPerPhase = 1 << 20
	maxTasksPerJob   = 1 << 21
)

// NewScheduler binds the listener (when Addr is set); Addr() reports the
// bound address.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:          cfg,
		loop:         newLoop(cfg.Logger),
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		workers:      make(map[uint32]*peer),
		jobs:         make(map[uint64]*lJob),
		copies:       make(map[copyKey]*cluster.Copy),
		pendingRecon: make(map[uint64][]pendingRecon),
		start:        cfg.Timers.Now(),
		durations:    cluster.NewCopySource(cfg.Seed),
	}
	s.model = cluster.DefaultExecModel()
	s.model.Beta = cfg.Beta
	s.killLoser = func(c *cluster.Copy) {
		s.sendKill(c)
		delete(s.copies, copyKey{uint32(c.Machine), c.Seq})
	}
	pcfg := protocol.Config{
		Mode:          cfg.Mode,
		NumSchedulers: cfg.NumSchedulers,
	}.WithDefaults()
	s.core = protocol.NewSched(protocol.SchedID(cfg.ID), pcfg, protocol.SchedEnv{
		Now:           s.now,
		Rand:          s.rng,
		TotalSlots:    func() int { return max(s.totalSlots, 1) },
		RandomWorkers: s.randomWorkers,
		WorkerCap:     s.workerCap,
		Stats:         &s.stats,
	})
	s.unlock = cluster.UnlockPlanner{
		Schedule: s.scheduleUnlock,
		Deliver: func(p *cluster.Phase) {
			s.sendProbes(s.core.PhaseRunnable(p))
		},
	}
	if cfg.Addr != "" {
		ln, err := transport.Listen(cfg.Addr)
		if err != nil {
			return nil, err
		}
		s.ln = ln
	}
	return s, nil
}

// Addr returns the listener's address (empty without a listener).
func (s *Scheduler) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr()
}

// now is the scheduler's virtual clock: seconds on cfg.Timers' clock
// since start divided by the time scale, so protocol state (copy starts,
// estimators, cooldowns) lives in workload time regardless of
// compression.
func (s *Scheduler) now() float64 {
	return s.cfg.Timers.Now().Sub(s.start).Seconds() / s.cfg.TimeScale
}

// workerSpeed returns the registered worker's advertised speed factor
// (1 for unknown workers and for a Hello speed of 0).
func (s *Scheduler) workerSpeed(workerID uint32) float64 {
	if p := s.workers[workerID]; p != nil && p.hello.Speed > 0 {
		return p.hello.Speed
	}
	return 1
}

// workerCap is the core's WorkerCap env binding: the registered
// worker's advertised per-slot capacity (zero for unknown workers; the
// zero capacity admits only zero-demand tasks).
func (s *Scheduler) workerCap(m cluster.MachineID) cluster.Resources {
	p := s.workers[uint32(m)]
	if p == nil {
		return cluster.Resources{}
	}
	return cluster.Resources{CPU: p.hello.CapCPU, Mem: p.hello.CapMem}
}

// randomWorkers samples n distinct registered workers
// (cluster.Machines.RandomSubset semantics; fewer when the cluster is
// smaller than n).
func (s *Scheduler) randomWorkers(rng *rand.Rand, n int, scratch []cluster.MachineID) []cluster.MachineID {
	out := scratch[:0]
	ids := s.workerIDs
	if n >= len(ids) {
		return append(out, ids...)
	}
	// n is a handful (probe surplus); rejection sampling over the sorted
	// ID list is cheap and allocation-free.
	for len(out) < n {
		cand := ids[rng.Intn(len(ids))]
		dup := false
		for _, x := range out {
			if x == cand {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cand)
		}
	}
	return out
}

// ServeConn registers an inbound connection made elsewhere (a test's
// transport.Pair end) exactly as if it had been accepted from the
// listener.
func (s *Scheduler) ServeConn(conn transport.Conn) {
	p := &peer{conn: conn}
	go s.loop.readFrom(p)
}

// Run accepts connections and processes messages until Stop, then fails
// all pending jobs with an aborted JobComplete before returning.
func (s *Scheduler) Run() {
	if s.ln != nil {
		go func() {
			for {
				conn, err := s.ln.Accept()
				if err != nil {
					return
				}
				s.ServeConn(conn)
			}
		}()
	}
	for {
		select {
		case <-s.loop.done:
			s.drain()
			return
		case env := <-s.loop.inbox:
			s.step(env)
		}
	}
}

// step is one turn of the scheduler: everything one inbox entry — a
// received frame, a connection's read error, a fired timer's event —
// does to the node, start to finish. Run is only the goroutine pump that
// feeds it; a harness that owns the clock (cfg.Timers) can call it
// directly instead and the node behaves the same.
func (s *Scheduler) step(env envelope) {
	if env.err != nil {
		s.onDisconnect(env.from)
		return
	}
	s.handle(env)
	env.release()
}

// onDisconnect handles an abruptly lost connection. A dead worker
// (crash, network drop — anything but a graceful drain) is removed from
// the topology and its in-flight copies are unwound and requeued, the
// same settlement its own drain would have reported.
func (s *Scheduler) onDisconnect(p *peer) {
	if p == nil {
		return
	}
	if p.hello.Role != wire.RoleWorker {
		// Client or unidentified peer: close our half so the peer sees
		// the break instead of submitting into a stream with no reader.
		p.conn.Close()
		return
	}
	id := p.hello.ID
	if s.workers[id] != p {
		p.conn.Close()
		return // already replaced by a reconnect
	}
	s.loop.logf("worker %d connection lost; unwinding its copies", id)
	// Close our half too: after a known-type decode failure the reader
	// abandons the stream deliberately, and a half-open socket would let
	// the peer keep writing into the void with all its protocol state
	// pinned on replies that cannot come.
	p.conn.Close()
	s.deregister(id, p.hello.Slots)
}

// deregister takes worker id out of the topology — its slots and the
// probe-target list — and settles every copy placed on it as lost.
func (s *Scheduler) deregister(id, slots uint32) {
	delete(s.workers, id)
	if i, ok := slices.BinarySearch(s.workerIDs, cluster.MachineID(id)); ok {
		s.workerIDs = slices.Delete(s.workerIDs, i, i+1)
	}
	s.totalSlots -= int(slots)
	s.unwindWorkerCopies(id)
}

// unwindWorkerCopies settles every in-flight copy placed on worker id
// as lost.
func (s *Scheduler) unwindWorkerCopies(id uint32) {
	var lost []*cluster.Copy
	for k, c := range s.copies {
		if k.worker == id {
			lost = append(lost, c)
		}
	}
	sortCopies(lost)
	for _, c := range lost {
		s.settleLostCopy(c)
	}
}

// sortCopies puts copies collected from the in-flight map into (worker,
// seq) order before they are settled. A settlement sends frames and
// draws probe targets from the node's RNG, so the order is behaviour:
// settled in map order, the same loss would not replay.
func sortCopies(cs []*cluster.Copy) {
	slices.SortFunc(cs, func(a, b *cluster.Copy) int {
		if c := cmp.Compare(a.Machine, b.Machine); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// settleLostCopy unwinds a copy that died on its worker: occupancy
// rolls back, and a task left with no live copy requeues — with its
// probes aimed away from the worker that lost it (likely draining; its
// still-registered connection would swallow them).
func (s *Scheduler) settleLostCopy(c *cluster.Copy) {
	delete(s.copies, copyKey{uint32(c.Machine), c.Seq})
	c.Task.DropCopy(c)
	s.sendProbesAvoiding(s.core.CopyLost(c.Task), int64(c.Machine))
}

// Stop terminates the scheduler; Run drains pending jobs on its way out.
func (s *Scheduler) Stop() {
	if s.ln != nil {
		s.ln.Close()
	}
	s.loop.stop()
}

// Kill terminates the scheduler abruptly — no aborted JobComplete
// frames, no graceful notification of anyone — emulating a crash for
// recovery tests and chaos drills. Peers learn of the death only from
// their connections breaking, exactly as with a real process kill;
// workers park this scheduler's state for re-registration and clients
// see their wait fail.
func (s *Scheduler) Kill() {
	s.abrupt.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.loop.stop()
}

// drain fails every still-pending job with an explicit aborted
// JobComplete — the client learns its fate instead of watching a
// connection die mid-round — then closes worker connections, in ID
// order so that a crash on a simulated clock replays. After a Kill it
// skips the notifications and just severs everything.
func (s *Scheduler) drain() {
	if s.abrupt.Load() {
		for _, j := range s.jobs {
			if j.client != nil {
				j.client.conn.Close()
			}
		}
		for _, ps := range s.pendingAdmit {
			if ps.from != nil {
				ps.from.conn.Close()
			}
		}
		for _, id := range s.workerIDs {
			s.workers[uint32(id)].conn.Close()
		}
		return
	}
	for id, j := range s.jobs {
		if j.client != nil {
			s.loop.send(j.client, &wire.JobComplete{
				JobID:   id,
				Aborted: true,
				Error:   fmt.Sprintf("scheduler %d shutting down", s.cfg.ID),
			})
		}
	}
	for _, ps := range s.pendingAdmit {
		if ps.from != nil {
			s.loop.send(ps.from, &wire.JobComplete{
				JobID:   ps.msg.JobID,
				Aborted: true,
				Error:   fmt.Sprintf("scheduler %d shutting down before any worker registered", s.cfg.ID),
			})
		}
	}
	for _, id := range s.workerIDs {
		s.workers[uint32(id)].conn.Close()
	}
}

func (s *Scheduler) handle(env envelope) {
	switch m := env.msg.(type) {
	case *wire.Hello:
		// Capture the pre-overwrite announcement: when the re-Hello rides
		// the SAME connection, old.hello below would already alias the
		// new values and the slot delta would always read zero.
		prevHello := env.from.hello
		env.from.hello = *m
		if m.Role == wire.RoleWorker {
			if prevHello.Role == wire.RoleWorker && prevHello.ID != m.ID && s.workers[prevHello.ID] == env.from {
				// The connection re-announced under a different ID:
				// deregister the previous identity or it lingers as a
				// ghost that double-counts slots and swallows probes. Its
				// copies settle now: their reports will arrive under the
				// new ID, which names none of them.
				s.deregister(prevHello.ID, prevHello.Slots)
			}
			old, known := s.workers[m.ID]
			// Always adopt the new connection: a restarted worker (drain +
			// relaunch) must replace its stale peer or every future probe
			// goes to a dead conn. Topology/slot accounting is keyed by ID.
			s.workers[m.ID] = env.from
			if known {
				oldSlots := old.hello.Slots
				if old == env.from {
					oldSlots = prevHello.Slots
				}
				s.totalSlots += int(m.Slots) - int(oldSlots)
				if old != env.from {
					// A genuine replacement: the old connection's
					// in-flight copies died with it. Unwind them now —
					// the late-arriving read error will hit
					// onDisconnect's replaced-peer guard and must not be
					// the only settlement path. This also clears stale
					// (workerID, seq) keys before the restarted worker's
					// sequence numbers start over. Close the replaced
					// conn so its reader exits and the old peer (if
					// half-open rather than dead) sees the break instead
					// of negotiating into the void. Probes shelved while
					// this worker was the only (unusable) target flush
					// to the fresh connection. (A redundant Hello on the
					// SAME connection must not unwind live copies.)
					s.unwindWorkerCopies(m.ID)
					old.conn.Close()
					s.flushPendingProbes()
				}
			} else {
				// Sorted insert (the slice stays sorted between Hellos; a
				// full re-sort per registration is O(n log n) x n during
				// mass boot, all on the scheduler loop).
				at := sort.Search(len(s.workerIDs), func(i int) bool {
					return s.workerIDs[i] >= cluster.MachineID(m.ID)
				})
				s.workerIDs = append(s.workerIDs, 0)
				copy(s.workerIDs[at+1:], s.workerIDs[at:])
				s.workerIDs[at] = cluster.MachineID(m.ID)
				s.totalSlots += int(m.Slots)
				// Reconcile BEFORE flushing buffered submissions: a
				// resubmission queued behind this registration must see
				// this worker's inventory stashed, or its admission
				// re-places tasks the worker is still running.
				s.reconcileWorker(m)
				s.flushPending()
			}
			if known {
				s.reconcileWorker(m)
			}
		}
	case *wire.SubmitJob:
		if len(s.workers) == 0 {
			// No probe targets yet: buffer until the first worker
			// registers (cluster boot races submissions otherwise).
			s.pendingAdmit = append(s.pendingAdmit, pendingSubmit{msg: m, from: env.from})
			return
		}
		s.admit(env.from, m)
	case *wire.Offer:
		// Worker frames must arrive on the worker's REGISTERED
		// connection: a frame queued from a replaced (crashed/restarted)
		// connection would otherwise create copies bound to a dead peer
		// that no disconnect path will ever unwind, or settle copies of
		// the new incarnation via colliding sequence numbers.
		if s.workers[m.WorkerID] != env.from {
			s.loop.logf("dropping offer from stale connection of worker %d", m.WorkerID)
			return
		}
		s.onOffer(env.from, m)
	case *wire.TaskDone:
		if s.workers[m.WorkerID] != env.from {
			s.loop.logf("dropping task report from stale connection of worker %d", m.WorkerID)
			return
		}
		s.onTaskDone(m)
	case *internalEvent:
		m.fn()
	}
}

func (s *Scheduler) flushPending() {
	pend := s.pendingAdmit
	s.pendingAdmit = nil
	for _, ps := range pend {
		s.admit(ps.from, ps.msg)
	}
	s.flushPendingProbes()
}

// flushPendingProbes re-sends probes that had no usable target when
// first aimed (full outage, or requeues avoiding the only worker).
func (s *Scheduler) flushPendingProbes() {
	probes := s.pendingProbes
	s.pendingProbes = nil
	s.sendProbes(probes)
}

// admit converts the submission into a cluster.Job, registers it with
// the core, and probes for its root phases.
func (s *Scheduler) admit(client *peer, m *wire.SubmitJob) {
	if _, dup := s.jobs[m.JobID]; dup {
		// Core job state is keyed by ID; re-admitting would orphan the
		// first registration in the scheduler's job list forever.
		s.loop.send(client, &wire.JobComplete{
			JobID: m.JobID, Aborted: true,
			Error: fmt.Sprintf("job %d is already active on this scheduler", m.JobID),
		})
		return
	}
	// Validate the whole shape before allocating anything: bounds on
	// per-phase and total task counts (NumTasks is a client-supplied
	// u32), and dependency indices that must point at earlier phases (an
	// out-of-range index would panic the unlock scan on the scheduler
	// loop — a remote crash). Same rules as the trace loader.
	totalTasks := 0
	for pi, ps := range m.Phases {
		if ps.NumTasks == 0 || ps.NumTasks > maxTasksPerPhase {
			s.loop.send(client, &wire.JobComplete{
				JobID: m.JobID, Aborted: true,
				Error: fmt.Sprintf("phase %d task count %d outside [1, %d]", pi, ps.NumTasks, maxTasksPerPhase),
			})
			return
		}
		totalTasks += int(ps.NumTasks)
		if totalTasks > maxTasksPerJob {
			s.loop.send(client, &wire.JobComplete{
				JobID: m.JobID, Aborted: true,
				Error: fmt.Sprintf("job exceeds %d total tasks", maxTasksPerJob),
			})
			return
		}
		for _, d := range ps.Deps {
			if int(d) >= pi {
				s.loop.send(client, &wire.JobComplete{
					JobID: m.JobID, Aborted: true,
					Error: fmt.Sprintf("phase %d dep %d out of range", pi, d),
				})
				return
			}
		}
	}
	var phases []*cluster.Phase
	for _, ps := range m.Phases {
		mean := ps.MeanDur
		if mean <= 0 {
			mean = s.cfg.MeanTaskSeconds
		}
		ph := &cluster.Phase{
			MeanTaskDuration: mean,
			TransferWork:     ps.TransferWork,
			Demand:           cluster.Resources{CPU: ps.DemandCPU, Mem: ps.DemandMem},
			Tasks:            cluster.NewTasks(int(ps.NumTasks)),
		}
		for _, d := range ps.Deps {
			ph.Deps = append(ph.Deps, int(d))
		}
		// Replicas beyond the phase's tasks are ignored.
		cluster.PackReplicas(ph.Tasks, func(i int) []uint32 {
			if i < len(ps.Replicas) {
				return ps.Replicas[i]
			}
			return nil
		})
		phases = append(phases, ph)
	}
	if len(phases) == 0 {
		s.loop.send(client, &wire.JobComplete{JobID: m.JobID, Aborted: true, Error: "job has no phases"})
		return
	}
	now := s.now()
	j := cluster.NewJob(cluster.JobID(m.JobID), m.Name, now, phases)
	lj := &lJob{job: j, client: client, submitWall: time.Now()}
	s.jobs[m.JobID] = lj
	s.core.Admit(j)
	// Attach copies that re-registering workers reported for this job
	// BEFORE the root phases fire: StartCopy marks those tasks Running,
	// so PhaseRunnable queues only the genuinely unplaced remainder and
	// the in-flight work is adopted instead of duplicated.
	if stash := s.pendingRecon[m.JobID]; stash != nil {
		delete(s.pendingRecon, m.JobID)
		n := 0
		for _, pr := range stash {
			if s.reconcileCopy(lj, pr.workerID, pr.rc) {
				n++
			}
		}
		s.loop.logf("job %d resubmitted: adopted %d of %d reported in-flight copies", m.JobID, n, len(stash))
	}
	s.ensureTicker()
	s.unlock.AdmitJob(j, now) // fires root-phase probes through Deliver
}

// reconcileWorker processes the recovery inventory of a (re-)registering
// worker's Hello: lost-reservation counts are recorded (fresh probes on
// resubmission recreate the reservations themselves), and still-running
// copies are re-attached — immediately for jobs this scheduler already
// knows, or stashed until the job's (re)submission. This is how a
// restarted scheduler rebuilds placement state it lost with its process.
func (s *Scheduler) reconcileWorker(m *wire.Hello) {
	if len(m.Running) == 0 && len(m.Reservations) == 0 {
		return
	}
	total := 0
	for _, jr := range m.Reservations {
		total += int(jr.Count)
	}
	if total > 0 {
		s.core.ReconcileReservations(total)
	}
	for _, rc := range m.Running {
		if lj := s.jobs[rc.JobID]; lj != nil {
			s.reconcileCopy(lj, m.ID, rc)
		} else {
			s.pendingRecon[rc.JobID] = append(s.pendingRecon[rc.JobID], pendingRecon{workerID: m.ID, rc: rc})
		}
	}
}

// reconcileCopy re-attaches one reported in-flight copy to its task:
// the task transitions to Running (so the phase wakeup skips it), the
// copy is indexed under the worker's original assign seq (so its
// eventual TaskDone settles normally), its watchdog deadline follows
// from the reported remaining time, and the core's occupancy/running
// bookkeeping is restored. Reports that no longer apply — unknown worker, stale
// coordinates, task already done, duplicate (worker, seq) — are dropped;
// the worker's copy then finishes into the stale-report path harmlessly.
func (s *Scheduler) reconcileCopy(lj *lJob, workerID uint32, rc wire.RunningCopy) bool {
	if s.workers[workerID] == nil {
		return false
	}
	j := lj.job
	if int(rc.Phase) >= len(j.Phases) {
		return false
	}
	ph := j.Phases[rc.Phase]
	if int(rc.TaskIndex) >= len(ph.Tasks) {
		return false
	}
	t := ph.Tasks[rc.TaskIndex]
	if t.State == cluster.TaskDone {
		return false
	}
	key := copyKey{workerID, rc.Seq}
	if _, dup := s.copies[key]; dup {
		return false
	}
	rem := rc.Remaining
	if rem < 0 {
		rem = 0
	}
	mid := cluster.MachineID(workerID)
	c := t.StartCopy(s.now(), mid, rc.Speculative, rem)
	// Remaining is wall-clock on the reporting worker; stamping its speed
	// keeps work-unit estimates (speculation, estimators) consistent.
	c.Speed = s.workerSpeed(workerID)
	c.Seq = rc.Seq
	if rc.Speculative {
		lj.specCopies++
	}
	s.copies[key] = c
	s.core.ReconcileRunning(t, rc.Speculative)
	s.ensureTicker()
	return true
}

// sendProbes realizes a core probe list as Reserve frames.
func (s *Scheduler) sendProbes(probes []protocol.Probe) {
	s.sendProbesAvoiding(probes, -1)
}

// sendProbesAvoiding is sendProbes with one worker treated as
// untargetable (the worker whose killed-copy report triggered a requeue
// — it is draining or just rejected an assign, so probes to it would be
// dropped or doomed). A probe aimed at it or at an unregistered worker
// (replica hint for a crashed worker, over-sized trace) is re-aimed at
// another registered worker rather than dropped — a task whose replica
// hints covered the whole probe count would otherwise get zero
// reservations and hang its job. With no eligible worker at all the
// probe is buffered and flushed at the next registration.
func (s *Scheduler) sendProbesAvoiding(probes []protocol.Probe, avoid int64) {
	for _, p := range probes {
		wid := uint32(p.Worker)
		w := s.workers[wid]
		if w == nil || int64(wid) == avoid {
			// Deterministic scan from a random offset: finds an eligible
			// worker whenever one is registered (bounded random sampling
			// could shelve the probe even with healthy workers present).
			w = nil
			if n := len(s.workerIDs); n > 0 {
				start := s.rng.Intn(n)
				for k := 0; k < n; k++ {
					alt := s.workerIDs[(start+k)%n]
					if int64(alt) == avoid {
						continue
					}
					if cand := s.workers[uint32(alt)]; cand != nil {
						w = cand
						wid = uint32(alt)
						break
					}
				}
			}
			if w == nil {
				// Full outage, or the avoided worker is the only one
				// left: hold the probe for the next registration instead
				// of stranding the task with zero reservations. (The
				// job's remaining aggregate reservations still cover it
				// if the lone worker is actually healthy.) One shelved
				// probe per job: the periodic reprobe would otherwise
				// grow the backlog without bound during a long outage
				// and flood the first worker to register.
				replaced := false
				for i := range s.pendingProbes {
					if s.pendingProbes[i].Job == p.Job {
						s.pendingProbes[i] = p
						replaced = true
						break
					}
				}
				if !replaced {
					s.pendingProbes = append(s.pendingProbes, p)
				}
				continue
			}
		}
		if lj := s.jobs[uint64(p.Job)]; lj != nil {
			// Stamp the first outstanding probe per worker for the
			// probe-round RTT observation (matched in onOffer).
			if lj.probeSent == nil {
				lj.probeSent = s.probeSentMap()
			}
			if _, out := lj.probeSent[wid]; !out {
				lj.probeSent[wid] = time.Now()
			}
		}
		s.out.reserve = wire.Reserve{
			JobID:       uint64(p.Job),
			SchedulerID: s.cfg.ID,
			VirtualSize: p.VS,
			RemTasks:    uint32(p.Rem),
			DemandCPU:   p.Demand.CPU,
			DemandMem:   p.Demand.Mem,
		}
		s.loop.send(w, &s.out.reserve)
	}
}

// reprobeEvery is how many ticker periods pass between reservation
// refreshes (ReprobeStalled): infrequent enough to stay out of the way,
// frequent enough to unstick a task whose probes were all lost.
const reprobeEvery = 20

// probeSentMap hands out a finished job's cleared probe-stamp map, or a
// new one when none is spare.
func (s *Scheduler) probeSentMap() map[uint32]time.Time {
	n := len(s.spareProbeSent)
	if n == 0 {
		return make(map[uint32]time.Time)
	}
	m := s.spareProbeSent[n-1]
	s.spareProbeSent[n-1] = nil
	s.spareProbeSent = s.spareProbeSent[:n-1]
	return m
}

// ensureTicker arms the periodic maintenance tick: the speculation scan
// every period (when speculation is on) and the stalled-task
// reservation refresh every reprobeEvery periods. The tick is re-armed
// only from its own event (tick), so a stale firing is never in flight
// when the timer is reset.
func (s *Scheduler) ensureTicker() {
	if s.tickerOn {
		return
	}
	s.tickerOn = true
	s.ticks = 0
	if s.ticker == nil {
		s.tickerEv.fn = s.tick
		s.ticker = s.cfg.Timers.AfterFunc(s.tickWall(), func() { s.post(&s.tickerEv, nil) })
		return
	}
	s.ticker.Reset(s.tickWall())
}

// tickWall is the tick period on the wall clock.
func (s *Scheduler) tickWall() time.Duration {
	return time.Duration(s.cfg.CheckInterval * s.cfg.TimeScale * float64(time.Second))
}

// tick is one maintenance tick on the loop; it re-arms the ticker while
// the scheduler holds jobs.
func (s *Scheduler) tick() {
	if !s.core.HasJobs() {
		s.tickerOn = false
		return
	}
	if s.core.NeedsTicker() {
		s.sendProbes(s.core.ScanSpec())
	}
	s.expireOverdueCopies()
	s.ticks++
	if s.ticks%reprobeEvery == 0 {
		s.sendProbes(s.core.ReprobeStalled())
	}
	s.ticker.Reset(s.tickWall())
}

// post enqueues an internal event onto the scheduler's own loop.
func (s *Scheduler) post(msg interface{}, from *peer) {
	s.loop.post(msg, from)
}

// onOffer answers a worker's offer or Sparrow pull through the core.
func (s *Scheduler) onOffer(from *peer, m *wire.Offer) {
	if _, dup := s.copies[copyKey{m.WorkerID, m.Seq}]; dup {
		// A duplicated offer frame whose first delivery already won a task:
		// answering again would commit a second copy under the same
		// (worker, seq) key, orphaning the first in the in-flight index —
		// an occupancy leak no settlement path could ever find. Duplicates
		// whose first delivery was refused carry no such state and may be
		// re-answered; the worker drops the surplus reply as stale.
		return
	}
	// Feed the probe policy the offer's piggybacked free-slot count
	// (no-op under random probing).
	s.core.ObserveWorkerLoad(cluster.MachineID(m.WorkerID), int(m.FreeSlots), s.workerCap(cluster.MachineID(m.WorkerID)))
	if lj := s.jobs[m.JobID]; lj != nil {
		if t0, out := lj.probeSent[m.WorkerID]; out {
			s.cfg.ProbeLatency.Record(time.Since(t0))
			delete(lj.probeSent, m.WorkerID)
		}
	}
	var rep protocol.Reply
	if m.GetTask {
		rep = s.core.HandleGetTask(cluster.JobID(m.JobID), cluster.MachineID(m.WorkerID))
	} else {
		rep = s.core.HandleOffer(cluster.JobID(m.JobID), cluster.MachineID(m.WorkerID), m.Refusable)
	}
	var dur float64
	if rep.HasTask {
		dur = s.startCopy(rep, m.WorkerID, m.Seq)
	}
	s.loop.send(from, s.out.wireFromReply(rep, m.Seq, dur))
}

// startCopy performs the placement bookkeeping the simulator's Executor
// would: it draws the copy's service time (scripted override or the
// simulator's own draw, ExecModel.CopyDuration), records the copy on the
// task, indexes it by (worker, seq) for settlement, and reports it to the
// core's victim index (Sched.CopyPlaced).
func (s *Scheduler) startCopy(rep protocol.Reply, workerID uint32, seq uint64) float64 {
	t := rep.Task
	m := cluster.MachineID(workerID)
	local := t.LocalOn(m)
	speed := s.workerSpeed(workerID)
	var dur float64
	if s.cfg.DurationOverride != nil {
		// Scripted schedules are explicit wall-clock times; no speed
		// scaling (same contract as the simulator's Executor).
		dur = s.cfg.DurationOverride(t, rep.Spec)
	} else {
		dur = s.model.CopyDuration(s.durations, t, local, speed)
	}
	c := t.StartCopy(s.now(), m, rep.Spec, dur)
	c.Speed = speed
	c.Seq = seq
	lj := s.jobs[uint64(rep.Job)]
	if rep.Spec && lj != nil {
		lj.specCopies++
	}
	if lj != nil && !lj.placed {
		// First placement for this job: the submit→first-task wall-clock
		// gap is the scheduling-latency SLO observation.
		lj.placed = true
		s.cfg.PlaceLatency.Record(time.Since(lj.submitWall))
	}
	s.copies[copyKey{workerID, seq}] = c
	s.core.CopyPlaced(t)
	return dur
}

// expireOverdueCopies sweeps the in-flight copies for ones whose report
// is overdue — past the copy's finish by the watchdog grace, floored at
// one wall-clock second so compressed time scales keep real slack — and
// settles them as lost: occupancy unwinds, a task left copy-less
// requeues with fresh probes, and a Kill tells the worker to reclaim the
// slot in case the copy is in fact still running (a late real report
// then finds the copy gone and is dropped).
func (s *Scheduler) expireOverdueCopies() {
	now := s.now()
	grace := max(defaultWatchdogGrace, 1.0/s.cfg.TimeScale)
	var overdue []*cluster.Copy
	for _, c := range s.copies {
		if now > c.Finish()+grace {
			overdue = append(overdue, c)
		}
	}
	sortCopies(overdue)
	for _, c := range overdue {
		s.stats.WatchdogExpiries++
		s.loop.logf("copy of job %d task %d on worker %d overdue; requeueing",
			c.Task.Job.ID, c.Task.Index, c.Machine)
		s.sendKill(c)
		s.settleLostCopy(c)
	}
}

// sendKill tells a copy's worker to stop it and free the slot.
func (s *Scheduler) sendKill(c *cluster.Copy) {
	s.out.kill = wire.Kill{JobID: uint64(c.Task.Job.ID), Seq: c.Seq}
	s.loop.send(s.workers[uint32(c.Machine)], &s.out.kill)
}

// onTaskDone settles a copy report: a win resolves the whole race
// (sibling kills, phase unlocks, job completion); a kill rolls the copy
// back and requeues the task if it lost its last copy (worker drain).
func (s *Scheduler) onTaskDone(m *wire.TaskDone) {
	key := copyKey{m.WorkerID, m.Seq}
	c := s.copies[key]
	if c == nil {
		return // stale: race already settled by the winning sibling
	}
	t := c.Task
	now := s.now()

	if m.Killed {
		// The copy never ran (stale assign) or died with its worker:
		// unwind it and, if the task is now copy-less, put it back on the
		// fresh queue and re-probe.
		s.settleLostCopy(c)
		return
	}

	delete(s.copies, key)
	if t.State == cluster.TaskDone {
		// Crossed with our Kill, or a recovery race placed this copy
		// after the task was already won (it was not part of the win's
		// settlement — sibling kills cleared every indexed copy then):
		// roll its hand-out back or the job finishes with occupancy
		// pinned and leaks.
		t.DropCopy(c)
		s.core.CopyLost(t)
		return
	}

	// This copy wins the race. Its running siblings are killed
	// (killLoser); their workers free the slots on Kill and send nothing
	// back — the race is settled here, once.
	t.Win(c, now, s.killLoser)
	s.core.TaskDone(t, c)

	if s.unlock.CompleteTask(t, now) {
		s.finishJob(t.Job)
	}
}

// scheduleUnlock is the planner's Schedule binding: a wakeup already due
// fires inline on the loop; a transfer-gated one waits out its delay on
// a wall-clock timer and posts back onto the loop.
func (s *Scheduler) scheduleUnlock(at simulator.Time, fire func()) {
	delay := at - s.now()
	if delay <= 0 {
		fire()
		return
	}
	s.cfg.Timers.AfterFunc(time.Duration(delay*s.cfg.TimeScale*float64(time.Second)), func() {
		s.post(&internalEvent{fn: fire}, nil)
	})
}

// Stats returns a snapshot of the scheduler's protocol counters
// (rounds, occupancy leaks, duplicate phase wakeups), taken on the
// scheduler loop so the read never races message handling. A stopped
// scheduler returns the zero value.
func (s *Scheduler) Stats() protocol.Stats {
	ch := make(chan protocol.Stats, 1)
	s.post(&internalEvent{fn: func() { ch <- s.stats }}, nil)
	select {
	case st := <-ch:
		return st
	case <-s.loop.done:
		return protocol.Stats{}
	}
}

// finishJob reports the completed job to its client and releases state.
func (s *Scheduler) finishJob(j *cluster.Job) {
	s.core.JobDone(j)
	id := uint64(j.ID)
	lj := s.jobs[id]
	if lj == nil {
		return
	}
	delete(s.jobs, id)
	if lj.probeSent != nil {
		clear(lj.probeSent)
		s.spareProbeSent = append(s.spareProbeSent, lj.probeSent)
		lj.probeSent = nil
	}
	if lj.client != nil {
		s.loop.send(lj.client, &wire.JobComplete{
			JobID:      id,
			Completion: j.DoneAt - j.Arrival,
			TasksRun:   uint32(j.TotalTasks()),
			SpecCopies: uint32(lj.specCopies),
		})
	}
}
