package live

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// The virtual cluster: the Scheduler and Worker that ship, on a
// simulation engine's clock, under seeded frame loss, duplication, delay
// and partition, worker loss and scheduler crash. Nothing here stands in
// for a node. The cluster is built from NewScheduler and NewWorkerConns;
// no node ever Runs — the harness owns the three things a node's
// goroutines would (the clock, the connections, the inbox pump) and calls
// each node's step itself, one engine event at a time, so a run is a pure
// function of its seed and a failing seed replays against scheduler.go
// and worker.go line numbers. A crashed scheduler is left as Run would
// leave it (Kill, then drain) and a fresh NewScheduler takes its place;
// the workers reattach through attachSched, inside a turn.
//
// RunVirtual runs one ChaosCell; Check holds the finished run to the
// oracles the protocol must keep no matter what the network does. The
// chaos tests and hopper-sim's chaos driver both run through it.

// --- fault injection ---------------------------------------------------

// Rates holds per-message fault probabilities; each is in [0, 1] and
// drawn independently per send.
type Rates struct {
	// Drop discards the message entirely.
	Drop float64
	// Dup delivers the message twice — the second copy after its own
	// delay draw, modeling a retransmit replay.
	Dup float64
	// Delay holds the message for an extra uniform draw from
	// [faultDelayMin, faultDelayMax) before delivery; delayed messages
	// overtake and are overtaken by others, so a nonzero rate also
	// produces reorders.
	Delay float64
}

// faultDelayMin and faultDelayMax bound an injected delivery delay, in
// virtual seconds.
const faultDelayMin, faultDelayMax float64 = 0.01, 0.2

// Fate is the Injector's verdict for one message. Delivery count is 0
// (dropped), 1, or 2 (duplicated); each delivered copy carries its own
// extra delay in seconds (0 = deliver in order).
type Fate struct {
	Drop     bool
	Delay    float64
	Dup      bool
	DupDelay float64
}

// FaultStats counts injected faults; all fields are monotonic.
type FaultStats struct {
	Sent             int64 // messages judged
	Dropped          int64 // messages discarded by a Drop verdict
	Duplicated       int64 // messages delivered twice
	Delayed          int64 // messages (or duplicate copies) held back
	PartitionDrops   int64 // messages discarded because the link was partitioned
	PartitionsHealed int64 // Heal calls that ended an active partition
}

// Injector is a seeded fault-decision engine. It only decides; the
// virtual cluster's connections realize each verdict. Its callers are
// single-threaded, as the virtual cluster is, so the same judge-call
// sequence gets the same verdicts.
type Injector struct {
	cell        ChaosCell
	rng         *rand.Rand
	partitioned bool
	stats       FaultStats
}

// NewInjector builds an injector for a cell's frame faults: its Rates,
// overridden per message type by PerType, drawn from a stream its Seed
// keys, so the same seed and send sequence produce the same verdicts.
func NewInjector(cell ChaosCell) *Injector {
	return &Injector{cell: cell, rng: rand.New(rand.NewSource(cell.Seed))}
}

func (in *Injector) delay() float64 {
	return faultDelayMin + in.rng.Float64()*(faultDelayMax-faultDelayMin)
}

// rates resolves the cell's rates for one message type.
func (in *Injector) rates(t wire.MsgType) Rates {
	if r, ok := in.cell.PerType[t]; ok {
		return r
	}
	return in.cell.Rates
}

// Judge decides the fate of one message about to be sent.
func (in *Injector) Judge(t wire.MsgType) Fate {
	in.stats.Sent++
	if in.partitioned {
		in.stats.PartitionDrops++
		return Fate{Drop: true}
	}
	r := in.rates(t)
	if r.Drop > 0 && in.rng.Float64() < r.Drop {
		in.stats.Dropped++
		return Fate{Drop: true}
	}
	var f Fate
	if r.Delay > 0 && in.rng.Float64() < r.Delay {
		f.Delay = in.delay()
		in.stats.Delayed++
	}
	if r.Dup > 0 && in.rng.Float64() < r.Dup {
		f.Dup = true
		f.DupDelay = in.delay()
		in.stats.Duplicated++
		if f.DupDelay > 0 {
			in.stats.Delayed++
		}
	}
	return f
}

// Partition starts dropping every message until Heal — a whole-link
// partition. Idempotent.
func (in *Injector) Partition() { in.partitioned = true }

// Heal ends an active partition. A no-op when none is active.
func (in *Injector) Heal() {
	if in.partitioned {
		in.partitioned = false
		in.stats.PartitionsHealed++
	}
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() FaultStats { return in.stats }

// --- the parity workload -----------------------------------------------
//
// The scripted jobs every chaos cell replays on the shipped nodes. It once
// drove a sim-vs-live assignment-log comparison; the two planes do not
// hand out one sequence (DESIGN.md §7, "The parity contract"), so the
// live nodes are pinned by their own frame-log golden and the bridge by
// TestBridgeRoundTrip.

const (
	virtualSchedulers = 3
	virtualMachines   = 8
	virtualSlots      = 2
	// virtualCheckInterval is the schedulers' speculation check period in
	// virtual seconds.
	virtualCheckInterval = 0.1
	// virtualLatency is the one-way frame latency in virtual seconds (the
	// simulator adapter's default MsgLatency).
	virtualLatency = 0.0005
	// virtualSubmitAt offsets job arrivals past worker registration: a
	// job admitted before the Hellos land would aim all its probes at the
	// workers registered so far.
	virtualSubmitAt = 0.01
	// virtualHorizon bounds a run in virtual seconds; the parity workload
	// finishes in under a minute of them even with a tenth of all frames
	// lost, so reaching it means some timer re-arms forever.
	virtualHorizon = 900.0
)

// scriptedDuration is the shared deterministic service-time script:
// every fifth original task straggles hard; re-draws (speculative
// copies) and other tasks are fast. This forces the speculation path —
// wants queues, capacity-driven victims, copy races, kills — through
// the nodes.
func scriptedDuration(t *cluster.Task, spec bool) float64 {
	if !spec && len(t.Copies) == 0 && t.Index%5 == 0 {
		return 8 * t.Phase.MeanTaskDuration
	}
	return 0.6 * t.Phase.MeanTaskDuration
}

// parityJobs builds the workload fresh for each run (a hetero cell sets
// demands on it): multi-phase DAGs with transfer gating, replica locality,
// and arrivals spread enough to exercise both load regimes.
func parityJobs(nMachines int) []*cluster.Job {
	mkPhase := func(tasks int, mean float64) *cluster.Phase {
		p := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, tasks)}
		for i := range p.Tasks {
			p.Tasks[i] = &cluster.Task{}
		}
		return p
	}
	var jobs []*cluster.Job
	for i := 0; i < 12; i++ {
		size := 3 + (i*5)%14
		p0 := mkPhase(size, 1.0)
		for k, t := range p0.Tasks {
			t.Replicas = []cluster.MachineID{
				cluster.MachineID((i + k) % nMachines),
				cluster.MachineID((i + k + 3) % nMachines),
			}
		}
		phases := []*cluster.Phase{p0}
		if i%2 == 0 {
			p1 := mkPhase(max(1, size/2), 0.8)
			p1.Deps = []int{0}
			p1.TransferWork = 0.5 * float64(size)
			phases = append(phases, p1)
		}
		if i%4 == 0 {
			// Transfer-gated tail plus an independent arm off the root: the
			// arm completes while the tail's wakeup is in flight — the
			// double-fire regime the exactly-once lifecycle must absorb.
			p2 := mkPhase(1, 0.5)
			p2.Deps = []int{len(phases) - 1}
			p2.TransferWork = 2.0
			phases = append(phases, p2)
			p3 := mkPhase(2, 1.2)
			p3.Deps = []int{0}
			phases = append(phases, p3)
		}
		name := ""
		if i%3 == 0 {
			name = "fam-a" // recurring family: exercises the alpha estimator
		}
		jobs = append(jobs, cluster.NewJob(cluster.JobID(i), name, float64(i)*0.7, phases))
	}
	return jobs
}

// --- the cluster -------------------------------------------------------

// sentFrame is one line of the frame log: what a node handed to a
// connection, when, and what the injector did with it.
type sentFrame struct {
	at       float64
	sched    int
	worker   int // -1: the scheduler's client
	toWorker bool
	typ      wire.MsgType
	seq      uint64 // Offer/reply/TaskDone/Kill sequence; 0 for the rest
	job      uint64
	phase    uint16 // Assign and TaskDone task coordinates
	task     uint32
	flag     bool // Assign.Speculative, TaskDone.Killed
	fate     Fate
}

// VirtualCluster is three live schedulers and eight live 2-slot workers
// on one simulation engine, as RunVirtual left them.
type VirtualCluster struct {
	eng     *simulator.Engine
	epoch   time.Time
	inj     *Injector
	scheds  []*Scheduler // nil while that scheduler is down
	dead    []*Scheduler // crashed instances, still counted in stats
	workers []*Worker
	jobs    []*cluster.Job // job i is submitted to scheduler i mod len(scheds)

	frames     []sentFrame
	answerable int64 // offers delivered on their worker's registered connection to a scheduler holding no copy under their (worker, seq)
	completed  map[uint64]bool
	aborted    int
	overran    bool
	onFrame    func(*VirtualCluster, sentFrame)

	// restartAt is when a crash plan restarted scheduler 0, and inventory
	// counts its copies per task running on the workers at that instant:
	// what their re-registration Hellos report.
	restartAt float64
	inventory map[taskKey]int
}

// taskKey names a task across the cluster: job IDs are unique.
type taskKey struct {
	job   uint64
	phase uint16
	task  uint32
}

// engineTimers is the cluster's protocol.TimerService: the nodes' only
// clock, read off the engine.
type engineTimers struct{ c *VirtualCluster }

func (t engineTimers) Now() time.Time {
	return t.c.epoch.Add(time.Duration(math.Round(t.c.eng.Now() * float64(time.Second))))
}

func (t engineTimers) AfterFunc(d time.Duration, f func()) protocol.Timer {
	et := &engineTimer{eng: t.c.eng}
	et.fn = t.c.turn(func() {
		et.done = true
		f()
	})
	et.ev = et.eng.After(d.Seconds(), et.fn)
	return et
}

// engineTimer is one callback on the engine. Each arm posts its own
// event; Reset cancels a pending one and posts the next exactly where
// an AfterFunc would have, so a node that re-arms one timer schedules
// the same events, in the same order, as one that built a timer per arm.
type engineTimer struct {
	eng  *simulator.Engine
	fn   func() // the turn-wrapped callback, posted on every arm
	ev   *simulator.Event
	done bool // fired or stopped
}

func (t *engineTimer) Stop() bool {
	if t.done {
		return false
	}
	t.done = true
	t.ev.Cancel()
	return true
}

func (t *engineTimer) Reset(d time.Duration) bool {
	was := t.Stop()
	t.done = false
	t.ev = t.eng.After(d.Seconds(), t.fn)
	return was
}

// turn wraps an engine event: run it, then step every node through
// whatever it posted to an inbox (timer callbacks post; they never touch
// node state themselves), until all inboxes are empty. Every event the
// harness schedules goes through here, so between two events no node has
// work pending — the single-threaded equivalent of the Run pumps.
func (c *VirtualCluster) turn(f func()) func() {
	return func() {
		f()
		for again := true; again; {
			again = false
			for _, s := range c.scheds {
				if s != nil {
					again = pump(s.loop, s.step) || again
				}
			}
			for _, w := range c.workers {
				again = pump(w.loop, w.step) || again
			}
		}
	}
}

// pump steps a node through its queued inbox entries.
func pump(l *loop, step func(envelope)) (any bool) {
	for env, ok := l.pop(); ok; env, ok = l.pop() {
		step(env)
		any = true
	}
	return any
}

// virtualConn is one end of a link. Send snapshots the frame (the node
// reuses its scratch value the moment Send returns — any Conn that holds
// a frame past Send must), asks the injector for its fate, logs it, and
// schedules each delivery as an engine event that hands the receiving
// node a fresh decode of the bytes, exactly what a reader goroutine would
// have put in its inbox. Hello is connection set-up, not protocol
// traffic, and JobComplete goes to the client: both are delivered
// faithfully.
type virtualConn struct {
	c        *VirtualCluster
	sched    int
	worker   int
	toWorker bool
	// recv steps the far node through what its reader goroutine would
	// post: a frame, or (m nil) the read error of a broken connection.
	recv   func(m wire.Message, err error)
	link   *virtualLink
	closed bool
}

// virtualLink is what the two ends of one connection share: once either
// end closes, nothing more crosses it in either direction.
type virtualLink struct{ broken bool }

func (vc *virtualConn) Send(m wire.Message) error {
	c := vc.c
	if vc.link.broken {
		return transport.ErrClosed
	}
	rec := sentFrame{at: c.eng.Now(), sched: vc.sched, worker: vc.worker, toWorker: vc.toWorker, typ: m.Type()}
	switch f := m.(type) {
	case *wire.Reserve:
		rec.job = f.JobID
	case *wire.Offer:
		rec.seq, rec.job = f.Seq, f.JobID
	case *wire.Assign:
		rec.seq, rec.job, rec.phase, rec.task, rec.flag = f.Seq, f.JobID, f.Phase, f.TaskIndex, f.Speculative
	case *wire.Refuse:
		rec.seq, rec.job = f.Seq, f.JobID
	case *wire.NoTask:
		rec.seq, rec.job = f.Seq, f.JobID
	case *wire.TaskDone:
		rec.seq, rec.job, rec.phase, rec.task, rec.flag = f.Seq, f.JobID, f.Phase, f.TaskIndex, f.Killed
	case *wire.Kill:
		rec.seq, rec.job = f.Seq, f.JobID
	case *wire.Hello, *wire.JobComplete:
	default:
		panic(fmt.Sprintf("virtual cluster: node sent a %s frame the ledger does not know", m.Type()))
	}
	if rec.typ != wire.THello && rec.typ != wire.TJobComplete {
		rec.fate = c.inj.Judge(rec.typ)
	}
	c.frames = append(c.frames, rec)
	if c.onFrame != nil {
		c.onFrame(c, rec)
	}
	if rec.fate.Drop {
		return nil
	}
	frame := wire.Append(nil, m)
	vc.deliver(frame, rec.fate.Delay)
	if rec.fate.Dup {
		vc.deliver(frame, rec.fate.DupDelay)
	}
	return nil
}

func (vc *virtualConn) deliver(frame []byte, extra float64) {
	vc.c.eng.PostAfter(virtualLatency+extra, vc.c.turn(func() {
		if vc.link.broken {
			return // lost with the link
		}
		m, err := wire.Decode(wire.MsgType(frame[4]), frame[5:])
		if err != nil {
			panic(err)
		}
		vc.recv(m, nil)
	}))
}

// Close breaks the link and, one latency later, steps the far node
// through the read error its reader goroutine would post on a broken
// socket; frames still in flight are lost. Closing an end twice does
// nothing, so the far node closing its own half in turn reaches this
// node the same way.
func (vc *virtualConn) Close() error {
	if vc.closed {
		return nil
	}
	vc.closed, vc.link.broken = true, true
	vc.c.eng.PostAfter(virtualLatency, vc.c.turn(func() { vc.recv(nil, transport.ErrClosed) }))
	return nil
}

// No node reads: deliveries are pushed into step.
func (vc *virtualConn) Recv() (wire.Message, error) { return nil, transport.ErrClosed }
func (vc *virtualConn) RemoteAddr() string {
	return fmt.Sprintf("virtual s%d/w%d", vc.sched, vc.worker)
}

// ChaosCell is one run's fault plan. The seed reaches both the fault
// stream and the schedulers' probe-target draws, so two seeds differ even
// where the injector draws nothing (a partition, zero rates).
type ChaosCell struct {
	Seed      int64
	Rates     Rates                  // every injected frame type
	PerType   map[wire.MsgType]Rates // overrides
	Partition [2]float64             // whole-cluster cut [from, to) in virtual seconds; zero: none
	// Crash, when set, kills scheduler 0 mid-run and restarts it.
	Crash *CrashPlan
	// Hetero splits the workers into two machine classes, each advertised
	// in its Hello, and gives every third job a demand only the big class
	// fits (heteroDemand).
	Hetero bool
	// onFrame, when set, sees every frame as it is logged — a hook for
	// cells that act on what the run has done so far.
	onFrame func(*VirtualCluster, sentFrame)
}

// ChaosCells are the chaos suite's named fault plans. The frame-log
// golden (TestChaosFrameLogGolden) pins each, the cell tests pick theirs
// by name, and hopper-sim's chaos driver runs each at every seed. Seed
// is left zero: the caller sets it.
var ChaosCells = []struct {
	Name string
	Cell ChaosCell
}{
	{"zero-rates", ChaosCell{}},
	{"drop-everywhere", ChaosCell{Rates: Rates{Drop: 0.1}}},
	{"dup-everywhere", ChaosCell{Rates: Rates{Dup: 0.1}}},
	{"delay-reorder", ChaosCell{Rates: Rates{Delay: 0.3}}},
	{"mixed", ChaosCell{Rates: Rates{Drop: 0.05, Dup: 0.05, Delay: 0.1}}},
	{"partition", ChaosCell{Partition: [2]float64{3.0, 6.0}}},
	{"lost-probes", ChaosCell{PerType: map[wire.MsgType]Rates{wire.TReserve: {Drop: 0.33}}}},
	{"lost-taskdone", ChaosCell{PerType: map[wire.MsgType]Rates{wire.TTaskDone: {Drop: 0.2}}}},
	{"lost-kill", ChaosCell{PerType: map[wire.MsgType]Rates{wire.TKill: {Drop: 0.5}}}},
}

// CrashPlan kills scheduler 0 at virtual second At and restarts it Down
// seconds later: a fresh NewScheduler under the same ID and config, a new
// link to every worker, and each job it had been handed and not reported
// resubmitted from a new client — before the workers reattach when
// LateWorkers is set, after them otherwise.
type CrashPlan struct {
	At, Down    float64
	LateWorkers bool
}

// heteroDemand is the per-task demand of a hetero cell's demand jobs: it
// fits a big worker's slot and not a small one's.
var heteroDemand = cluster.Resources{CPU: 2, Mem: 4}

// heteroDemanded says whether job id carries heteroDemand in a hetero
// cell.
func heteroDemanded(id uint64) bool { return id%3 == 0 }

// RunVirtual replays the parity workload on a fresh virtual cluster under
// the cell's faults until the engine runs dry.
func RunVirtual(cell ChaosCell) *VirtualCluster {
	c := &VirtualCluster{
		eng:       simulator.New(cell.Seed),
		epoch:     time.Unix(0, 0),
		inj:       NewInjector(cell),
		jobs:      parityJobs(virtualMachines),
		completed: make(map[uint64]bool),
		onFrame:   cell.onFrame,
	}
	for si := 0; si < virtualSchedulers; si++ {
		c.scheds = append(c.scheds, c.newScheduler(cell.Seed, si))
	}
	for wi := 0; wi < virtualMachines; wi++ {
		conns := make([]transport.Conn, len(c.scheds))
		for si := range c.scheds {
			conns[si] = c.link(si, wi)
		}
		cfg := WorkerConfig{ID: uint32(wi), Slots: virtualSlots, Mode: protocol.ModeHopper, Timers: engineTimers{c}}
		if cell.Hetero {
			cfg.Cap = cluster.Resources{CPU: 4, Mem: 8}
			if wi >= virtualMachines/2 {
				cfg.Cap, cfg.Speed = cluster.Resources{CPU: 1, Mem: 2}, 0.5
			}
		}
		// A virtual link accepts every send until it is closed, so the
		// greeting cannot fail.
		w, err := NewWorkerConns(cfg, conns)
		if err != nil {
			panic(err)
		}
		c.workers = append(c.workers, w)
	}
	for i, j := range c.jobs {
		if cell.Hetero && heteroDemanded(uint64(j.ID)) {
			for _, p := range j.Phases {
				p.Demand = heteroDemand
			}
		}
		si := i % len(c.scheds)
		c.eng.Post(virtualSubmitAt+j.Arrival, c.turn(func() { c.submit(si, j) }))
	}
	if plan := cell.Crash; plan != nil {
		c.eng.Post(plan.At, c.turn(func() {
			// What Run does once its loop is stopped: the shipped code
			// severs the client, pending-admit and worker links.
			s := c.scheds[0]
			s.Kill()
			s.drain()
			c.scheds[0], c.dead = nil, append(c.dead, s)
		}))
		c.eng.Post(plan.At+plan.Down, c.turn(func() {
			c.scheds[0], c.restartAt = c.newScheduler(cell.Seed, 0), c.eng.Now()
			if plan.LateWorkers {
				c.resubmit()
			}
			c.reattach()
			if !plan.LateWorkers {
				c.resubmit()
			}
		}))
	}
	if cell.Partition[1] > cell.Partition[0] {
		c.eng.Post(cell.Partition[0], c.inj.Partition)
		c.eng.Post(cell.Partition[1], c.inj.Heal)
	}
	c.eng.Post(virtualHorizon, func() {
		if c.eng.Pending() > 0 {
			c.overran = true
			c.eng.Stop()
		}
	})
	c.eng.Run()
	return c
}

// newScheduler builds scheduler si of the cell's cluster; a restart
// builds it again from the same config. Without a listen address
// NewScheduler cannot fail.
func (c *VirtualCluster) newScheduler(seed int64, si int) *Scheduler {
	s, err := NewScheduler(SchedulerConfig{
		ID:               uint32(si),
		Mode:             protocol.ModeHopper,
		NumSchedulers:    virtualSchedulers,
		CheckInterval:    virtualCheckInterval,
		Seed:             seed*31 + int64(si),
		DurationOverride: scriptedDuration,
		Timers:           engineTimers{c},
	})
	if err != nil {
		panic(err)
	}
	return s
}

// link is one new connection between scheduler si and worker wi; it
// returns the worker's end. Both ends resolve their node when a frame
// lands, not now: the worker end exists before the worker (its
// constructor greets over it), and scheduler si may have been restarted
// since — or be down, and lose the frame.
func (c *VirtualCluster) link(si, wi int) *virtualConn {
	l := &virtualLink{}
	p := &peer{conn: &virtualConn{c: c, sched: si, worker: wi, toWorker: true, link: l, recv: func(m wire.Message, err error) {
		w := c.workers[wi]
		w.step(received(w.scheds[si], m, err))
	}}}
	return &virtualConn{c: c, sched: si, worker: wi, link: l, recv: func(m wire.Message, err error) {
		s := c.scheds[si]
		if s == nil {
			return
		}
		if off, ok := m.(*wire.Offer); ok && s.workers[off.WorkerID] == p {
			if _, held := s.copies[copyKey{off.WorkerID, off.Seq}]; !held {
				c.answerable++
			}
		}
		s.step(received(p, m, err))
	}}
}

// submit hands job j to scheduler si from a new client, whose link
// records the job's report; a scheduler that is down loses the job.
func (c *VirtualCluster) submit(si int, j *cluster.Job) {
	if s := c.scheds[si]; s != nil {
		client := &peer{conn: &virtualConn{c: c, sched: si, worker: -1, link: &virtualLink{}, recv: c.report}}
		s.step(envelope{from: client, msg: SubmitFromJob(j)})
	}
}

// report is the client end of a submission's link.
func (c *VirtualCluster) report(m wire.Message, err error) {
	if err != nil {
		return // the scheduler crashed with the job; the crash plan resubmits it
	}
	jc := m.(*wire.JobComplete)
	if jc.Aborted || c.completed[jc.JobID] {
		c.aborted++
	}
	c.completed[jc.JobID] = true
}

// resubmit sends scheduler 0, one link latency from now, every job it
// had been handed and not reported back. A job whose arrival is now was
// handed over already: its event was posted first.
func (c *VirtualCluster) resubmit() {
	var lost []*cluster.Job
	for i, j := range c.jobs {
		if i%len(c.scheds) == 0 && virtualSubmitAt+j.Arrival <= c.eng.Now() && !c.completed[uint64(j.ID)] {
			lost = append(lost, j)
		}
	}
	c.eng.PostAfter(virtualLatency, c.turn(func() {
		for _, j := range lost {
			c.submit(0, j)
		}
	}))
}

// reattach records scheduler 0's copies running on the workers — what
// their re-registration Hellos will report — and attaches every worker
// to the restarted instance over a new link.
func (c *VirtualCluster) reattach() {
	c.inventory = make(map[taskKey]int)
	for wi, w := range c.workers {
		for _, rc := range w.runningBySeq() {
			if rc.sidx == 0 {
				c.inventory[taskKey{rc.msg.JobID, rc.msg.Phase, rc.msg.TaskIndex}]++
			}
		}
		w.attachSched(0, &peer{conn: c.link(0, wi)})
	}
}

// --- what a finished run reports ---------------------------------------

// Stats sums every protocol counter over the nodes (each node owns its
// own), crashed scheduler instances included.
func (c *VirtualCluster) Stats() protocol.Stats {
	var sum protocol.Stats
	total := reflect.ValueOf(&sum).Elem()
	add := func(st protocol.Stats) {
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			total.Field(i).SetInt(total.Field(i).Int() + v.Field(i).Int())
		}
	}
	for _, s := range c.scheds {
		add(s.stats)
	}
	for _, s := range c.dead {
		add(s.stats)
	}
	for _, w := range c.workers {
		add(w.stats)
	}
	return sum
}

// Faults returns the injector's counters: what the run's links did to
// the frames the nodes sent.
func (c *VirtualCluster) Faults() FaultStats { return c.inj.Stats() }

// Jobs counts the jobs reported complete, and the reports that were an
// abort or a second report for a job.
func (c *VirtualCluster) Jobs() (completed, aborted int) { return len(c.completed), c.aborted }

// sent counts the frame log's sends of the given types; flagged narrows
// the count to frames whose flag (Speculative, Killed) is set.
func (c *VirtualCluster) sent(flagged bool, types ...wire.MsgType) (n int64) {
	for _, f := range c.frames {
		if slices.Contains(types, f.typ) && (f.flag || !flagged) {
			n++
		}
	}
	return n
}

// Check holds a finished run to the oracles — what the protocol must keep
// no matter what the network does — and returns the first one broken:
//
//   - every job is reported complete, none aborted (no task stranded by a
//     lost frame),
//   - DoubleWakeups == 0 (phase unlocks stay exactly-once),
//   - SilentDemand == 0 (a job that said NoDemand hands out nothing it
//     has not probed for since; a lost probe is still a sent one),
//   - OccupancyLeaks <= killed TaskDones (a rollback racing JobDone is the
//     only tolerated leak),
//   - every send is one of the frame types the ledger knows, and replies
//     pair 1:1 with the offers that were delivered and answerable (the
//     scheduler deliberately ignores a duplicate of an offer whose first
//     delivery won a task — onOffer's guard — and an offer from a
//     connection no longer registered under its worker ID),
//   - conservation once the engine runs dry: every slot free, no copy
//     running or in flight, no offer pending, no job left anywhere.
//
// That the same seed produces the same frame log is the replay tests'
// oracle: it takes two runs.
func (c *VirtualCluster) Check() error {
	if c.overran {
		return fmt.Errorf("engine still busy after %v virtual seconds — a recovery timer re-arms forever", virtualHorizon)
	}
	if len(c.completed) != len(c.jobs) || c.aborted != 0 {
		return fmt.Errorf("%d of %d jobs reported complete, %d aborted or reported twice", len(c.completed), len(c.jobs), c.aborted)
	}
	st := c.Stats()
	if st.DoubleWakeups != 0 {
		return fmt.Errorf("%d double wakeups — phase unlock lost exactly-once under faults", st.DoubleWakeups)
	}
	if st.SilentDemand != 0 {
		return fmt.Errorf("%d tasks handed out for a job that had said NoDemand and not probed since", st.SilentDemand)
	}
	if killed := c.sent(true, wire.TTaskDone); st.OccupancyLeaks > killed {
		return fmt.Errorf("%d occupancy leaks exceed %d killed task reports", st.OccupancyLeaks, killed)
	}
	// Every send is classified (virtualConn.Send panics on a type it does
	// not know), so the ledger is the log; replies answer exactly the
	// offers that arrived and could be answered.
	if replies := c.sent(false, wire.TAssign, wire.TRefuse, wire.TNoTask); replies != c.answerable {
		return fmt.Errorf("%d replies for %d delivered, answerable offers (%d sent)", replies, c.answerable, c.sent(false, wire.TOffer))
	}
	for _, w := range c.workers {
		if running := len(w.runningBySeq()); w.freeSlots != w.cfg.Slots || running != 0 || w.core.OffersOut() != 0 {
			return fmt.Errorf("worker %d ends with %d of %d slots free, %d copies running, %d offers pending",
				w.cfg.ID, w.freeSlots, w.cfg.Slots, running, w.core.OffersOut())
		}
	}
	for _, s := range c.scheds {
		if len(s.copies) != 0 || len(s.jobs) != 0 {
			return fmt.Errorf("scheduler %d ends with %d copies in flight, %d jobs",
				s.cfg.ID, len(s.copies), len(s.jobs))
		}
	}
	return nil
}
