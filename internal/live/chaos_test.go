package live

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// The failure-domain suite: the Scheduler and Worker that ship, on a
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
// The oracles are what the protocol must keep NO MATTER what the network
// does:
//
//   - every job is reported complete, none aborted (no task stranded by a
//     lost frame),
//   - every send is one of the frame types the ledger knows, and replies
//     pair 1:1 with the offers that were delivered and answerable (the
//     scheduler deliberately ignores a duplicate of an offer whose first
//     delivery won a task — onOffer's guard — and an offer from a
//     connection no longer registered under its worker ID),
//   - DoubleWakeups == 0 (phase unlocks stay exactly-once),
//   - SilentDemand == 0 (a job that said NoDemand hands out nothing it
//     has not probed for since; a lost probe is still a sent one),
//   - OccupancyLeaks <= killed TaskDones (a rollback racing JobDone is the
//     only tolerated leak),
//   - conservation once the engine runs dry: every slot free, no copy
//     running or in flight, no offer pending, no job left anywhere,
//   - the same seed produces the same frame log.

const (
	virtualMachines = 8
	virtualSlots    = 2
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

// virtualCluster is three live schedulers and eight live 2-slot workers
// on one simulation engine.
type virtualCluster struct {
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
	onFrame    func(*virtualCluster, sentFrame)

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
type engineTimers struct{ c *virtualCluster }

func (t engineTimers) Now() time.Time {
	return t.c.epoch.Add(time.Duration(math.Round(t.c.eng.Now() * float64(time.Second))))
}

func (t engineTimers) AfterFunc(d time.Duration, f func()) protocol.Timer {
	et := &engineTimer{}
	et.ev = t.c.eng.After(d.Seconds(), t.c.turn(func() {
		et.done = true
		f()
	}))
	return et
}

type engineTimer struct {
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

// turn wraps an engine event: run it, then step every node through
// whatever it posted to an inbox (timer callbacks post; they never touch
// node state themselves), until all inboxes are empty. Every event the
// harness schedules goes through here, so between two events no node has
// work pending — the single-threaded equivalent of the Run pumps.
func (c *virtualCluster) turn(f func()) func() {
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
	for {
		select {
		case env := <-l.inbox:
			step(env)
			any = true
		default:
			return any
		}
	}
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
	c        *virtualCluster
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

// chaosCell is one run's fault plan. The seed reaches both the fault
// stream and the schedulers' probe-target draws, so two seeds differ even
// where the injector draws nothing (a partition, zero rates).
type chaosCell struct {
	seed      int64
	rates     Rates                  // every injected frame type
	perType   map[wire.MsgType]Rates // overrides
	partition [2]float64             // whole-cluster cut [from, to) in virtual seconds; zero: none
	// onFrame, when set, sees every frame as it is logged — a hook for
	// cells that act on what the run has done so far.
	onFrame func(*virtualCluster, sentFrame)
	// crash, when set, kills scheduler 0 mid-run and restarts it.
	crash *crashPlan
	// hetero splits the workers into two machine classes, each advertised
	// in its Hello, and gives every third job a demand only the big class
	// fits (heteroDemand).
	hetero bool
}

// crashPlan kills scheduler 0 at virtual second at and restarts it down
// seconds later: a fresh NewScheduler under the same ID and config, a new
// link to every worker, and each job it had been handed and not reported
// resubmitted from a new client — before the workers reattach when
// lateWorkers is set, after them otherwise.
type crashPlan struct {
	at, down    float64
	lateWorkers bool
}

// heteroDemand is the per-task demand of a hetero cell's demand jobs: it
// fits a big worker's slot and not a small one's.
var heteroDemand = cluster.Resources{CPU: 2, Mem: 4}

// heteroDemanded says whether job id carries heteroDemand in a hetero
// cell.
func heteroDemanded(id uint64) bool { return id%3 == 0 }

// runChaos replays the parity workload on a fresh virtual cluster under
// the cell's faults until the engine runs dry.
func runChaos(t *testing.T, cell chaosCell) *virtualCluster {
	t.Helper()
	c := &virtualCluster{
		eng:   simulator.New(cell.seed),
		epoch: time.Unix(0, 0),
		inj: NewInjector(FaultConfig{
			Seed: cell.seed, Default: cell.rates, PerType: cell.perType, DelayMin: 0.01, DelayMax: 0.2,
		}),
		jobs:      parityJobs(virtualMachines),
		completed: make(map[uint64]bool),
		onFrame:   cell.onFrame,
	}
	for si := 0; si < parityCfg.NumSchedulers; si++ {
		c.scheds = append(c.scheds, c.newScheduler(t, cell.seed, si))
	}
	for wi := 0; wi < virtualMachines; wi++ {
		conns := make([]transport.Conn, len(c.scheds))
		for si := range c.scheds {
			conns[si] = c.link(si, wi)
		}
		cfg := WorkerConfig{ID: uint32(wi), Slots: virtualSlots, Mode: parityCfg.Mode, Timers: engineTimers{c}}
		if cell.hetero {
			cfg.Cap = cluster.Resources{CPU: 4, Mem: 8}
			if wi >= virtualMachines/2 {
				cfg.Cap, cfg.Speed = cluster.Resources{CPU: 1, Mem: 2}, 0.5
			}
		}
		w, err := NewWorkerConns(cfg, conns)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	for i, j := range c.jobs {
		if cell.hetero && heteroDemanded(uint64(j.ID)) {
			for _, p := range j.Phases {
				p.Demand = heteroDemand
			}
		}
		si := i % len(c.scheds)
		c.eng.Post(virtualSubmitAt+j.Arrival, c.turn(func() { c.submit(si, j) }))
	}
	if plan := cell.crash; plan != nil {
		c.eng.Post(plan.at, c.turn(func() {
			// What Run does once its loop is stopped: the shipped code
			// severs the client, pending-admit and worker links.
			s := c.scheds[0]
			s.Kill()
			s.drain()
			c.scheds[0], c.dead = nil, append(c.dead, s)
		}))
		c.eng.Post(plan.at+plan.down, c.turn(func() {
			c.scheds[0], c.restartAt = c.newScheduler(t, cell.seed, 0), c.eng.Now()
			if plan.lateWorkers {
				c.resubmit()
			}
			c.reattach()
			if !plan.lateWorkers {
				c.resubmit()
			}
		}))
	}
	if cell.partition[1] > cell.partition[0] {
		c.eng.Post(cell.partition[0], c.inj.Partition)
		c.eng.Post(cell.partition[1], c.inj.Heal)
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
// builds it again from the same config.
func (c *virtualCluster) newScheduler(t *testing.T, seed int64, si int) *Scheduler {
	s, err := NewScheduler(SchedulerConfig{
		ID:               uint32(si),
		Mode:             parityCfg.Mode,
		NumSchedulers:    parityCfg.NumSchedulers,
		CheckInterval:    parityCfg.CheckInterval,
		Seed:             seed*31 + int64(si),
		DurationOverride: scriptedDuration,
		Timers:           engineTimers{c},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// link is one new connection between scheduler si and worker wi; it
// returns the worker's end. Both ends resolve their node when a frame
// lands, not now: the worker end exists before the worker (its
// constructor greets over it), and scheduler si may have been restarted
// since — or be down, and lose the frame.
func (c *virtualCluster) link(si, wi int) *virtualConn {
	l := &virtualLink{}
	p := &peer{conn: &virtualConn{c: c, sched: si, worker: wi, toWorker: true, link: l, recv: func(m wire.Message, err error) {
		w := c.workers[wi]
		w.step(envelope{from: w.scheds[si], msg: m, err: err})
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
		s.step(envelope{from: p, msg: m, err: err})
	}}
}

// submit hands job j to scheduler si from a new client, whose link
// records the job's report; a scheduler that is down loses the job.
func (c *virtualCluster) submit(si int, j *cluster.Job) {
	if s := c.scheds[si]; s != nil {
		client := &peer{conn: &virtualConn{c: c, sched: si, worker: -1, link: &virtualLink{}, recv: c.report}}
		s.step(envelope{from: client, msg: SubmitFromJob(j)})
	}
}

// report is the client end of a submission's link.
func (c *virtualCluster) report(m wire.Message, err error) {
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
func (c *virtualCluster) resubmit() {
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
func (c *virtualCluster) reattach() {
	c.inventory = make(map[taskKey]int)
	for wi, w := range c.workers {
		for _, rc := range w.running {
			if rc.sidx == 0 {
				c.inventory[taskKey{rc.msg.JobID, rc.msg.Phase, rc.msg.TaskIndex}]++
			}
		}
		w.attachSched(0, &peer{conn: c.link(0, wi), hello: wire.Hello{Role: wire.RoleScheduler}})
	}
}

// stats sums every protocol counter over the nodes (each node owns its
// own), crashed scheduler instances included.
func (c *virtualCluster) stats() protocol.Stats {
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

// sent counts the frame log's sends of the given types; flagged narrows
// the count to frames whose flag (Speculative, Killed) is set.
func (c *virtualCluster) sent(flagged bool, types ...wire.MsgType) (n int64) {
	for _, f := range c.frames {
		if slices.Contains(types, f.typ) && (f.flag || !flagged) {
			n++
		}
	}
	return n
}

// assertOracles enforces the invariant set on a finished run.
func (c *virtualCluster) assertOracles(t *testing.T, tag string) {
	t.Helper()
	if c.overran {
		t.Fatalf("%s: engine still busy after %v virtual seconds — a recovery timer re-arms forever", tag, virtualHorizon)
	}
	if len(c.completed) != len(c.jobs) || c.aborted != 0 {
		t.Fatalf("%s: %d of %d jobs reported complete, %d aborted or reported twice", tag, len(c.completed), len(c.jobs), c.aborted)
	}
	st := c.stats()
	if st.DoubleWakeups != 0 {
		t.Fatalf("%s: %d double wakeups — phase unlock lost exactly-once under faults", tag, st.DoubleWakeups)
	}
	if st.SilentDemand != 0 {
		t.Fatalf("%s: %d tasks handed out for a job that had said NoDemand and not probed since", tag, st.SilentDemand)
	}
	if killed := c.sent(true, wire.TTaskDone); st.OccupancyLeaks > killed {
		t.Fatalf("%s: %d occupancy leaks exceed %d killed task reports", tag, st.OccupancyLeaks, killed)
	}
	// Every send is classified (virtualConn.Send panics on a type it does
	// not know), so the ledger is the log; replies answer exactly the
	// offers that arrived and could be answered.
	if replies := c.sent(false, wire.TAssign, wire.TRefuse, wire.TNoTask); replies != c.answerable {
		t.Fatalf("%s: %d replies for %d delivered, answerable offers (%d sent)", tag, replies, c.answerable, c.sent(false, wire.TOffer))
	}
	for _, w := range c.workers {
		if w.freeSlots != w.cfg.Slots || len(w.running) != 0 || w.core.OffersOut() != 0 {
			t.Fatalf("%s: worker %d ends with %d of %d slots free, %d copies running, %d offers pending",
				tag, w.cfg.ID, w.freeSlots, w.cfg.Slots, len(w.running), w.core.OffersOut())
		}
	}
	for _, s := range c.scheds {
		if len(s.copies) != 0 || len(s.jobs) != 0 {
			t.Fatalf("%s: scheduler %d ends with %d copies in flight, %d jobs",
				tag, s.cfg.ID, len(s.copies), len(s.jobs))
		}
	}
}

var chaosSeeds = []int64{11, 23, 37}

// faultMatrix is TestChaosFaultMatrix's drop/dup/delay cells, each run
// across chaosSeeds.
var faultMatrix = []struct {
	name                string
	rates               Rates
	wantDrops, wantDups bool
}{
	{name: "drop-everywhere", rates: Rates{Drop: 0.1}, wantDrops: true},
	{name: "dup-everywhere", rates: Rates{Dup: 0.1}, wantDups: true},
	{name: "delay-reorder", rates: Rates{Delay: 0.3}},
	{name: "mixed", rates: Rates{Drop: 0.05, Dup: 0.05, Delay: 0.1}, wantDrops: true, wantDups: true},
}

// The single-frame-type loss cells and the partition window, shared by
// their tests and the frame-log golden.
var (
	lostProbes   = map[wire.MsgType]Rates{wire.TReserve: {Drop: 0.33}}
	lostTaskDone = map[wire.MsgType]Rates{wire.TTaskDone: {Drop: 0.2}}
	lostKill     = map[wire.MsgType]Rates{wire.TKill: {Drop: 0.5}}
	partitionCut = [2]float64{3.0, 6.0}
)

// TestChaosZeroRatesMatchesParity is the zero-rate cell: with nothing
// injected the shipped nodes replay the parity workload without one
// recovery path firing — no offer abandoned, no copy written off, no
// assign rejected, nothing requeued or killed — and every offer sent is
// answered exactly once.
func TestChaosZeroRatesMatchesParity(t *testing.T) {
	c := runChaos(t, chaosCell{seed: 42})
	c.assertOracles(t, "zero-rates")
	st, inj := c.stats(), c.inj.Stats()
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
				c := runChaos(t, chaosCell{seed: seed, rates: cell.rates})
				c.assertOracles(t, fmt.Sprintf("%s seed %d", cell.name, seed))
				inj := c.inj.Stats()
				if cell.wantDrops && inj.Dropped == 0 {
					t.Fatalf("%s seed %d: no drops injected — cell exercised nothing", cell.name, seed)
				}
				if cell.wantDups && inj.Duplicated == 0 {
					t.Fatalf("%s seed %d: no dups injected — cell exercised nothing", cell.name, seed)
				}
				if cell.rates.Delay > 0 && inj.Delayed == 0 {
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
		c := runChaos(t, chaosCell{seed: seed, partition: partitionCut})
		c.assertOracles(t, fmt.Sprintf("partition seed %d", seed))
		inj := c.inj.Stats()
		if inj.PartitionsHealed != 1 {
			t.Fatalf("seed %d: %d partitions healed, want 1", seed, inj.PartitionsHealed)
		}
		if inj.PartitionDrops == 0 {
			t.Fatalf("seed %d: partition window dropped nothing — workload idle during the cut", seed)
		}
		if st := c.stats(); st.OfferTimeouts == 0 {
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
		c := runChaos(t, chaosCell{seed: seed, rates: Rates{Drop: 0.1}})
		c.assertOracles(t, fmt.Sprintf("recovery seed %d", seed))
		st := c.stats()
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
		c := runChaos(t, chaosCell{seed: seed, perType: lostProbes})
		c.assertOracles(t, fmt.Sprintf("lost-probes seed %d", seed))
		if c.inj.Stats().Dropped == 0 {
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
		c := runChaos(t, chaosCell{seed: seed, perType: lostTaskDone})
		c.assertOracles(t, fmt.Sprintf("lost-taskdone seed %d", seed))
		st, inj := c.stats(), c.inj.Stats()
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
		c := runChaos(t, chaosCell{seed: seed, perType: lostKill})
		c.assertOracles(t, fmt.Sprintf("lost-kill seed %d", seed))
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
		if st := c.stats(); st.WatchdogExpiries+st.Requeues+st.OccupancyLeaks+st.OfferTimeouts != 0 {
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
		a := runChaos(t, chaosCell{seed: seed, rates: mixed})
		a.assertOracles(t, fmt.Sprintf("replay seed %d", seed))
		b := runChaos(t, chaosCell{seed: seed, rates: mixed})
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
		c        *virtualCluster
		lost     [2]int
		raced    taskKey
		cutAt    int // frames logged before the cut
		orphaned int // tasks whose every copy was on the lost workers at the cut
	}
	run := func() outcome {
		var o outcome
		originals := make(map[taskKey]int) // worker of each task's original
		cell := chaosCell{seed: 42, onFrame: func(c *virtualCluster, f sentFrame) {
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
		o.c = runChaos(t, cell)
		if o.cutAt == 0 {
			t.Fatal("no task raced across two workers — scenario too weak")
		}
		return o
	}
	o := run()
	c := o.c
	c.assertOracles(t, "worker-loss")
	if st := c.stats(); st.Requeues != int64(o.orphaned) || st.WatchdogExpiries != 0 {
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

// TestHelloUnderNewIDSettlesOldCopies re-announces a worker under a new
// ID mid-run, on every link at once, right after a scheduler committed a
// copy to it. Copies name their worker by ID and the worker now reports
// under the new one, so the old ID's copies are settled by the Hello
// itself (deregister) — not left for the watchdog: nothing leaks, each
// task left with no copy requeues exactly once, and the topology holds
// the new ID in place of the old with the same slot total.
func TestHelloUnderNewIDSettlesOldCopies(t *testing.T) {
	const oldID, newID = 0, virtualMachines + 100
	orphaned, cut := 0, false
	c := runChaos(t, chaosCell{seed: 42, onFrame: func(c *virtualCluster, f sentFrame) {
		if cut || f.typ != wire.TAssign || f.worker != oldID {
			return
		}
		cut = true
		c.eng.PostAfter(0, c.turn(func() {
			w := c.workers[oldID]
			w.cfg.ID = newID
			for _, s := range c.scheds {
				orphaned += orphanedBy(s, func(id uint32) bool { return id == oldID })
				s.step(envelope{from: s.workers[oldID], msg: w.helloMsg()})
			}
		}))
	}})
	c.assertOracles(t, "hello-new-id")
	st := c.stats()
	if orphaned == 0 {
		t.Fatal("no task had all its copies on the old ID when it was re-announced — scenario too weak")
	}
	if st.OccupancyLeaks != 0 || st.WatchdogExpiries != 0 {
		t.Fatalf("%d occupancy leaks, %d watchdog expiries: the old ID's copies were not settled by the Hello", st.OccupancyLeaks, st.WatchdogExpiries)
	}
	if st.Requeues != int64(orphaned) {
		t.Fatalf("%d requeues for %d tasks left with no copy by re-announcing worker %d", st.Requeues, orphaned, oldID)
	}
	for _, s := range c.scheds {
		if s.workers[oldID] != nil || s.workers[newID] == nil || slices.Contains(s.workerIDs, oldID) ||
			s.totalSlots != virtualMachines*virtualSlots {
			t.Fatalf("scheduler %d topology after re-announce: old %v new %v ids %v slots %d",
				s.cfg.ID, s.workers[oldID] != nil, s.workers[newID] != nil, s.workerIDs, s.totalSlots)
		}
	}
}

// runReplayed runs a cell twice and fails unless the second run sends the
// same frame log as the first.
func runReplayed(t *testing.T, cell chaosCell, tag string) *virtualCluster {
	t.Helper()
	c := runChaos(t, cell)
	if again := runChaos(t, cell); !slices.Equal(again.frames, c.frames) {
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
		c := runReplayed(t, chaosCell{seed: seed, crash: &crashPlan{at: 1.5, down: 0.5, lateWorkers: lateWorkers}}, tag)
		c.assertOracles(t, tag)
		copies := 0
		for _, n := range c.inventory {
			copies += n
		}
		st := c.stats()
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
		c := runReplayed(t, chaosCell{seed: seed, hetero: true}, tag)
		c.assertOracles(t, tag)
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
