// Package decentral runs the decentralized schedulers of Sections 5 and
// 6.1 — decentralized Hopper, and the Sparrow and Sparrow-SRPT baselines
// it is evaluated against — inside the discrete-event simulator.
//
// Architecture (Figure 4): multiple independent job schedulers each own a
// subset of jobs; workers own slots. A scheduler pushes reservation
// requests ("probes") for its tasks to a subset of workers; a worker with
// a free slot late-binds — it asks the scheduler of a queued reservation
// for a task, and the scheduler decides which task (if any) to hand over.
//
// The protocol state machines themselves (Pseudocode 2/3: virtual-size
// ordering, refusable offers, piggybacked smallest-unsatisfied jobs,
// Guideline 3's weighted fallback) live in internal/protocol; this
// package is the simulator adapter. It feeds the cores from executor
// callbacks, realizes core actions as engine posts under the message
// cost model, and owns nothing protocol-shaped beyond counters. The
// same cores drive internal/live over real connections. The two adapters
// do not hand out one assignment sequence — each node draws from its own
// RNG, and only this adapter queues behind procDelay — so each plane is
// pinned by its own golden (DESIGN.md §7, "The parity contract").
//
// Messages are simulated with a one-way latency plus a serial
// per-message processing delay at each scheduler, so higher probe ratios
// genuinely cost more (Figure 11's drop at high utilization).
package decentral

import (
	"math/rand"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// Mode selects the scheduling protocol (re-exported from protocol so
// experiment configs read as before).
type Mode = protocol.Mode

// The three decentralized systems evaluated in the paper.
const (
	// ModeHopper is decentralized Hopper (Section 5).
	ModeHopper = protocol.ModeHopper
	// ModeSparrow is stock Sparrow: FIFO worker queues, batched
	// power-of-two probes, best-effort speculation.
	ModeSparrow = protocol.ModeSparrow
	// ModeSparrowSRPT is the paper's aggressive baseline: Sparrow whose
	// workers pick the job with the fewest unfinished tasks.
	ModeSparrowSRPT = protocol.ModeSparrowSRPT
	// ModeLoadCache is decentralized Hopper with load-cached probe aiming
	// (protocol.LoadCachePolicy) in place of uniform random subsets.
	ModeLoadCache = protocol.ModeLoadCache
)

// procDelay is the serial per-message processing time at a scheduler,
// in seconds: what makes extra probes cost something.
const procDelay = 20e-6

// Config holds the decentralized system's parameters: the shared
// protocol parameters plus the simulator-only message cost model. A zero
// shared field resolves to protocol.Config's default for the mode.
type Config struct {
	// Mode selects the protocol: Hopper-D (Section 5), or one of the
	// baselines Section 7 compares it with.
	Mode Mode

	// NumSchedulers is the number of independent job schedulers
	// (50 in the Figure 5 simulations, 10 in the prototype).
	NumSchedulers int

	// ProbeRatio is reservations per task (d). Hopper's default is 4
	// (Figure 5a); Sparrow's is 2.
	ProbeRatio float64

	// RefusalThreshold is how many refusals a worker collects before
	// concluding (Pseudocode 3). Default 2 (Figure 5b: two to three
	// refusals suffice).
	RefusalThreshold int

	// MsgLatency is the one-way network latency in seconds. Default
	// 0.5ms, ours: a datacenter round trip of about a millisecond.
	MsgLatency float64

	// Spec is the parameter table both planes share (speculation.Config:
	// straggler detection, the β prior, ε), each field with its source.
	// One table is ours: the planes cannot drift apart.
	Spec speculation.Config

	// CheckInterval is the scheduler-side speculation scan period in
	// seconds. Default protocol.DefaultCheckInterval (ours; its comment
	// gives the reason).
	CheckInterval float64

	// ReprobeInterval, when positive, arms the periodic reservation
	// refresh (ReprobeStalled) independent of churn. Ours: heterogeneous
	// clusters need it for liveness. A demand-carrying task whose probes
	// all landed on workers it does not fit would otherwise strand — the
	// refresh re-rolls its reservations until one reaches a machine with
	// enough per-slot capacity.
	ReprobeInterval float64
}

// protocol projects the shared protocol parameters out of the config.
func (c Config) protocol() protocol.Config {
	return protocol.Config{
		Mode:             c.Mode,
		NumSchedulers:    c.NumSchedulers,
		ProbeRatio:       c.ProbeRatio,
		RefusalThreshold: c.RefusalThreshold,
		Spec:             c.Spec,
	}
}

// Counters are the simulator adapter's counters: protocol traffic, churn
// accounting, probe coalescing, and the cores' shared protocol.Stats.
type Counters struct {
	// Messages counts every protocol message sent (probes, responses,
	// replies) — the overhead currency of Section 5.
	Messages int64

	// Message/round breakdown for diagnostics and the overhead tables.
	Probes int64 // reservation requests sent
	Offers int64 // worker->scheduler offers / task pulls
	// Rollbacks counts worker->scheduler occupancy rollbacks: the task
	// finished while the accept was in flight (a speculative copy racing
	// its original). These are scheduler-bound messages but not offers;
	// counting them as offers would inflate the Section 5 overhead
	// figures.
	Rollbacks int64

	// Churn accounting (EnableChurn runs only — all zero otherwise).
	// MachinesLeft/MachinesJoined count churn transitions; CopiesLost
	// counts running copies killed by a leave; ProbesLost counts
	// reservations that arrived at a departed machine; AssignsLost counts
	// task hand-outs that died in flight to one (each triggers a
	// rollback, and a requeue when it held the task's only placement).
	MachinesLeft   int64
	MachinesJoined int64
	CopiesLost     int64
	ProbesLost     int64
	AssignsLost    int64

	// ProbeEventsSaved counts engine events avoided by probe coalescing:
	// one batch of probes emitted by a single core call is delivered as
	// one event (all probes arrive at the same simulated instant and are
	// processed in emission order — the engine's same-timestamp FIFO
	// contract makes this indistinguishable from per-probe events), so a
	// batch of n probes saves n-1 events. Message counters above are
	// unaffected: coalescing is an engine-level optimization, not a
	// protocol change.
	ProbeEventsSaved int64

	// Stats carries the core-side counters (RoundsStarted, RoundsPlaced,
	// OccupancyLeaks, Requeues, ...), shared by every core of the system.
	protocol.Stats
}

// System is a running decentralized cluster: schedulers, workers, and the
// shared executor. It satisfies the same Arrive/Completed contract as the
// centralized engines, so experiment drivers treat both uniformly.
type System struct {
	// Cfg is New's config with MsgLatency and CheckInterval defaulted;
	// the shared fields resolve in pcfg.
	Cfg  Config
	Eng  *simulator.Engine
	Exec *cluster.Executor

	scheds  []*sched
	workers []*worker

	byJob map[cluster.JobID]*sched
	done  []*cluster.Job

	next int // round-robin scheduler assignment

	// msgs and batches are the pooled-message free lists. Every
	// simulated protocol message is one recycled message object posted
	// through a lane's PostArg and drained by System.dispatch — no
	// per-post closure, no per-message heap allocation once the pool is
	// warm. Probe batches keep a list of their own, so only they carry
	// probe arrays: an offer or a reply never holds one a batch left.
	msgs    msgPool
	batches msgPool

	// pool recycles reservation entries and negotiation rounds among all
	// worker cores, which the engine drives from one goroutine, and holds
	// the scratch their calls share; a rejoining machine's fresh core
	// draws from it too.
	pool protocol.Pool

	// toWorker, toSched and ticks are the engine lanes of the three
	// streams that make most of the events: worker-bound messages (probe
	// batches and replies, a constant hop from now), scheduler-bound ones
	// (each scheduler's serial queue, in order per scheduler and nearly
	// so across them) and the speculation ticks (a constant period).
	toWorker *simulator.Lane
	toSched  *simulator.Lane
	ticks    *simulator.Lane

	// Counters are promoted, so callers read each as a System field.
	Counters

	// pcfg is the resolved protocol config, kept to build fresh worker
	// cores when churned machines rejoin.
	pcfg protocol.Config

	// trackCopies makes workers record their live copies (EnableChurn
	// sets it; off the churn path placement stays tracking-free).
	trackCopies bool

	// churnOn/reprobeOn mark the churn driver's self-rearming ticks as
	// armed, so Arrive can restart them when new jobs land after an idle
	// gap (the ticks disarm when no jobs are live, or the engine would
	// never drain).
	churn     ChurnConfig
	churnRng  *rand.Rand
	churnOn   bool
	reprobeOn bool
	// reprobeEvery is the armed reservation-refresh period:
	// Config.ReprobeInterval, or churnReprobeEvery when EnableChurn found
	// it off; 0 leaves the refresh off.
	reprobeEvery float64

	// OnPlace, when set, observes every successful placement in hand-out
	// order (the churn tests check that none lands on a down machine).
	// Observation only: it must not mutate cluster state.
	OnPlace func(t *cluster.Task, m cluster.MachineID, spec bool)
}

// msgKind discriminates pooled message events.
type msgKind uint8

const (
	// mProbeBatch: scheduler -> workers, one batch of reservation
	// requests emitted by a single core call, delivered as one event and
	// processed in emission order.
	mProbeBatch msgKind = iota
	// mOffer: worker -> scheduler offer or Sparrow task pull.
	mOffer
	// mReply: scheduler -> worker answer to an offer; reuses the offer's
	// message object (the offer's number rides along).
	mReply
	// mPlacementFailed: worker -> scheduler occupancy rollback when the
	// task finished while the accept was in flight.
	mPlacementFailed
	// mLostAssign: the scheduler's (modeled) timeout discovery that a
	// hand-out never reached its worker — the machine left the cluster
	// with the reply in flight. Rolls back occupancy and requeues the
	// task if it has no other live copy. Churn runs only.
	mLostAssign
)

// message is one pooled simulated protocol message. The same object
// makes the offer -> reply round trip; probe batches, pooled apart, reuse
// the probes slice across recycles.
type message struct {
	sys  *System
	next *message // free-list link
	kind msgKind

	sched  *sched  // target (offer, placement-failed) or source (probes)
	worker *worker // offering / reply-receiving worker
	wepoch int     // worker's churn epoch when the offer was sent

	// Offer content (job, refusable, getTask, and the worker core's
	// number for the offer, which the reply leg hands back to it).
	job       cluster.JobID
	refusable bool
	getTask   bool
	seq       uint64

	rep    protocol.Reply   // reply payload (mReply)
	probes []protocol.Probe // batch payload (mProbeBatch)

	// free piggybacks the sending worker's free-slot count on offers,
	// stamped at send time. Feeds the scheduler's probe policy; random
	// policies ignore it.
	free int
}

// msgPool is a free list of messages with the slab its new ones come
// from. A refill holds as many messages as the list has made so far (at
// least one, at most 64), the rule protocol.Pool's slabs follow.
type msgPool struct {
	free *message
	slab []message
	made int
}

// getMsg pops a recycled message (or carves the pool's next one).
func (s *System) getMsg(p *msgPool) *message {
	if m := p.free; m != nil {
		p.free = m.next
		m.next = nil
		return m
	}
	if len(p.slab) == 0 {
		n := min(max(p.made, 1), 64)
		p.slab = make([]message, n)
		p.made += n
	}
	m := &p.slab[0]
	p.slab = p.slab[1:]
	m.sys = s
	return m
}

// putMsg scrubs pointer fields (so recycled messages pin nothing) and
// returns the message to its pool: a probe batch to the batches, which
// keep their probes slice's capacity, anything else to the messages.
func (s *System) putMsg(m *message) {
	m.sched = nil
	m.worker = nil
	m.rep = protocol.Reply{}
	p := &s.msgs
	if m.kind == mProbeBatch {
		m.probes = m.probes[:0]
		p = &s.batches
	}
	m.next = p.free
	p.free = m
}

// dispatchMessage is the single engine-facing dispatch entry point: a
// package-level function, so posting it with a pooled message through
// PostArg allocates nothing.
func dispatchMessage(arg any) {
	m := arg.(*message)
	m.sys.dispatch(m)
}

// dispatch processes one delivered message and recycles it (the offer
// leg re-posts the same object as its reply instead).
func (s *System) dispatch(m *message) {
	switch m.kind {
	case mProbeBatch:
		sid := protocol.SchedID(m.sched.id)
		for i := range m.probes {
			p := &m.probes[i]
			w := s.workers[p.Worker]
			if w.down {
				// Probe lost at a departed machine; the periodic
				// reservation refresh (churn driver) re-covers the task.
				s.ProbesLost++
				continue
			}
			w.exec(w.core.AddReservation(sid, p.Job, p.VS, p.Rem, p.Demand))
		}
		s.putMsg(m)
	case mOffer:
		sc := m.sched
		// Feed the probe policy the offer's piggybacked load view (free
		// slots as of the send instant, capacity from the immutable
		// machine record). No-op under random probing.
		sc.core.ObserveWorkerLoad(m.worker.id, m.free, s.Exec.Machines.All[m.worker.id].Cap)
		if m.getTask {
			m.rep = sc.core.HandleGetTask(m.job, m.worker.id)
		} else {
			m.rep = sc.core.HandleOffer(m.job, m.worker.id, m.refusable)
		}
		// The reply rides the same message object back to the worker.
		m.kind = mReply
		s.Messages++
		s.toWorker.PostArg(s.Eng.Now()+s.Cfg.MsgLatency, dispatchMessage, m)
	case mReply:
		w := m.worker
		if w.down || m.wepoch != w.epoch {
			// The worker died (or died and rejoined) with this reply in
			// flight: the offer it answers was a previous core's. A
			// hand-out riding the reply is lost work the
			// scheduler must take back — modeled as its assign-timeout
			// discovery, one more scheduler-bound rollback message.
			if m.rep.HasTask {
				s.AssignsLost++
				m.kind = mLostAssign
				s.Rollbacks++
				s.toScheduler(m.sched, m)
				return
			}
			s.putMsg(m)
			return
		}
		acts, ok := w.core.OnReply(m.seq, m.rep)
		if !ok {
			// Simulated links lose and repeat nothing: every offer of a
			// living core is answered exactly once.
			panic("decentral: reply to an offer no round is waiting on")
		}
		w.exec(acts)
		s.putMsg(m)
	case mPlacementFailed:
		m.sched.core.PlacementFailed(m.job)
		s.putMsg(m)
	case mLostAssign:
		sc := m.sched
		if m.rep.Spec {
			// Not a speculative hand-out's business to requeue: its
			// original still runs, or the loss that killed it requeued
			// the task already. The rollback alone settles it.
			sc.core.PlacementFailed(m.rep.Job)
		} else {
			sc.sendProbes(sc.core.CopyLost(m.rep.Task))
		}
		s.putMsg(m)
	}
}

// New builds a decentralized system over the executor's machines.
func New(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *System {
	if cfg.MsgLatency == 0 {
		cfg.MsgLatency = 0.0005
	}
	if cfg.CheckInterval == 0 {
		cfg.CheckInterval = protocol.DefaultCheckInterval
	}
	s := &System{
		Cfg:   cfg,
		Eng:   eng,
		Exec:  exec,
		byJob: make(map[cluster.JobID]*sched),

		toWorker: eng.NewLane(),
		toSched:  eng.NewLane(),
		ticks:    eng.NewLane(),
	}
	s.reprobeEvery = cfg.ReprobeInterval
	pcfg := cfg.protocol().WithDefaults()
	s.pcfg = pcfg
	for i := 0; i < pcfg.NumSchedulers; i++ {
		s.scheds = append(s.scheds, newSched(s, i, pcfg))
	}
	s.workers = make([]*worker, len(exec.Machines.All))
	for i := range s.workers {
		s.workers[i] = newWorker(s, cluster.MachineID(i), pcfg)
	}
	exec.OnTaskDone = s.onTaskDone
	exec.OnPhaseRunnable = s.onPhaseRunnable
	exec.OnJobDone = s.onJobDone
	exec.OnSlotFree = s.onSlotFree
	return s
}

// Name identifies the system in reports.
func (s *System) Name() string { return s.Cfg.Mode.String() }

// Completed returns finished jobs in completion order.
func (s *System) Completed() []*cluster.Job { return s.done }

// Arrive admits a job, assigning it round-robin to a scheduler exactly as
// the paper's frontends do.
func (s *System) Arrive(j *cluster.Job) {
	sc := s.scheds[s.next%len(s.scheds)]
	s.next++
	s.byJob[j.ID] = sc
	sc.admit(j)
	s.ensureChurnTicks()
	s.Exec.AdmitJob(j) // fires onPhaseRunnable -> probes
}

func (s *System) onPhaseRunnable(p *cluster.Phase) {
	if sc := s.byJob[p.Job.ID]; sc != nil {
		sc.sendProbes(sc.core.PhaseRunnable(p))
	}
}

func (s *System) onTaskDone(t *cluster.Task, winner *cluster.Copy) {
	if sc := s.byJob[t.Job.ID]; sc != nil {
		sc.core.TaskDone(t, winner)
	}
}

func (s *System) onJobDone(j *cluster.Job) {
	if sc := s.byJob[j.ID]; sc != nil {
		sc.core.JobDone(j)
		delete(s.byJob, j.ID)
	}
	s.done = append(s.done, j)
}

func (s *System) onSlotFree(m cluster.MachineID) {
	w := s.workers[m]
	if w.down {
		return // a departed machine's slots are not schedulable
	}
	w.exec(w.core.Kick())
}

// toScheduler delivers a pooled message at its target scheduler after
// network latency and the scheduler's serial processing queue — the cost
// model for message overhead. Kind-specific counters (Offers, Rollbacks)
// are the send sites' job: this path carries every scheduler-bound
// message, not just offers.
func (s *System) toScheduler(sc *sched, m *message) {
	s.Messages++
	arrive := s.Eng.Now() + s.Cfg.MsgLatency
	handle := arrive
	if sc.busyUntil > handle {
		handle = sc.busyUntil
	}
	handle += procDelay
	sc.busyUntil = handle
	s.toSched.PostArg(handle, dispatchMessage, m)
}
