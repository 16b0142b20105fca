package live

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// WorkerConfig configures a live worker node.
type WorkerConfig struct {
	ID    uint32
	Slots int
	// SchedulerAddrs are the TCP addresses of all schedulers; the worker
	// dials each and keeps the connections open (probes and assignments
	// flow back over them). A lost one is re-dialed every redialInterval
	// until it answers — the crash-recovery path for TCP clusters — and
	// the worker re-registers over the new connection with its
	// running-copy and lost-reservation inventory, so a restarted
	// scheduler rebuilds its placement state. Leave empty and use
	// NewWorkerConns to hand the worker connections made elsewhere (test
	// pairs, virtual links); such a caller reconnects explicitly via
	// ReconnectScheduler.
	SchedulerAddrs []string
	// Mode must match the schedulers'.
	Mode protocol.Mode
	// Speed and Cap are this worker's service-rate factor and per-slot
	// capacity. The worker advertises both in its Hello, so schedulers
	// need no out-of-band machine configuration: Speed scales its
	// service times scheduler-side (0 reads as 1) and a task's demand
	// must fit Cap (the zero Cap admits only zero-demand tasks).
	Speed float64
	Cap   cluster.Resources
	// TimeScale multiplies task service times (0.1 turns a 10s task into
	// 1s of wall clock). Must match the schedulers'. Default 1.
	TimeScale float64
	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
	// Timers is the worker's clock: it arms its timers (copy completion,
	// the offer-expiry sweep, retry backoff) and is what its virtual time
	// — the core's clock — is read from. Nil uses protocol.WallTimers (one
	// runtime timer per callback). Multiplexed workers share one
	// protocol.TimerWheel so a thousand-worker process runs one timer
	// goroutine instead of thousands of runtime timers (see WorkerGroup).
	Timers protocol.TimerService
}

// defaultRetryJitter is the retry-backoff spread live workers run with:
// enough to break retry lockstep after a mass-loss event (partition
// heal, scheduler restart) without distorting the backoff scale. The
// simulator keeps jitter at zero — its dispatch golden pins exact retry
// timing.
const defaultRetryJitter = 0.2

// defaultOfferTimeout is how long (virtual seconds) the worker waits for
// a reply to an offer before abandoning it and moving the round on — the
// recovery path for dropped offers and dropped replies. Generous against
// reply latency (milliseconds of wall clock) while bounding how long a
// lost frame can stall a negotiation round. The worker only keeps time:
// it asks the core to expire what was sent this long ago (offerTimerFired).
const defaultOfferTimeout = 5.0

// redialInterval is how often (wall clock) a worker that dialed its
// schedulers by address re-dials one whose connection broke: short
// against a scheduler restart, long against a loopback dial's cost.
const redialInterval = 50 * time.Millisecond

// runningCopy is one emulated in-flight copy on this worker. sidx is
// the dial-order slot of the scheduler that placed it (for re-pointing
// the completion report after a reconnect) and startedVirt the virtual
// start time (for computing Remaining in a re-registration Hello).
//
// A record outlives its copy: the worker recycles it through its free
// list (newCopy, freeCopy). Its finish event is built with the record
// and its timer by the record's first copy, so a copy placed on a
// recycled record re-arms the timer and allocates nothing.
type runningCopy struct {
	seq         uint64
	msg         wire.Assign
	from        *peer
	sidx        int
	startedVirt float64

	timer  protocol.Timer // posts finish; nil until the first copy
	finish internalEvent  // runs copyFinished on the loop
}

// Worker is a live worker node: a thin adapter feeding a protocol.Worker
// core from real connections. It queues reservations, late-binds free
// slots via refusable offers in virtual-size order, and emulates task
// execution by holding a slot for the assigned duration (scaled).
type Worker struct {
	cfg   WorkerConfig
	loop  *loop
	core  *protocol.Worker
	stats protocol.Stats
	start time.Time

	scheds []*peer // dial order; fallback when no ID has been learned
	// schedByID/idByPeer map announced scheduler IDs to connections.
	// Learned from Reserve frames (every offer follows a reservation, so
	// the mapping is always taught before it is needed) — a worker's
	// -schedulers list order need not match scheduler -id assignment.
	schedByID map[protocol.SchedID]*peer
	idByPeer  map[*peer]protocol.SchedID
	freeSlots int
	running   map[uint64]*runningCopy // by assign seq
	spare     []*runningCopy          // copy records free for reuse (freeCopy)
	retry     protocol.Timer
	retryGen  uint64 // invalidates stale RetryFired deliveries

	// parked holds the reservation inventory DropSched discarded per
	// dial-order slot, reported to the scheduler on reconnect (the
	// restarted instance counts them; fresh probes recreate them).
	parked map[int][]protocol.LostReservation

	// offerTimerOn says the one timer that has the core expire unanswered
	// offers is armed (or its event is in flight to the loop): exec arms
	// it with the first offer out, offerTimerFired re-aims it.
	// offerTimerFn is its callback, which posts offerTimerEv. All three
	// are built once: the first arm makes offerTimer and every later one
	// resets it, which is safe because the timer is only ever re-armed
	// once its event has been consumed.
	offerTimerOn bool
	offerTimer   protocol.Timer
	offerTimerFn func()
	offerTimerEv *internalEvent

	// out is the scratch every per-frame message this node sends is built
	// in (see Scheduler.out).
	out struct {
		offer    wire.Offer
		taskDone wire.TaskDone
	}

	// curReply carries the in-delivery assign context into the core's
	// Place callback (single-threaded loop; never concurrent).
	curReply struct {
		seq  uint64
		from *peer
		msg  *wire.Assign
	}
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.Speed <= 0 {
		c.Speed = 1
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.Timers == nil {
		c.Timers = protocol.WallTimers
	}
	return c
}

// NewWorker dials the schedulers and returns a ready (not yet running)
// worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	conns := make([]transport.Conn, 0, len(cfg.SchedulerAddrs))
	for _, addr := range cfg.SchedulerAddrs {
		conn, err := transport.Dial(addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("live: worker %d dialing scheduler %s: %w", cfg.ID, addr, err)
		}
		conns = append(conns, conn)
	}
	return NewWorkerConns(cfg, conns)
}

// NewWorkerConns builds a worker over pre-established connections, one
// per scheduler in scheduler-ID order: NewWorker's dialed connections,
// a test's transport.Pair ends, or the chaos suite's virtual links.
func NewWorkerConns(cfg WorkerConfig, conns []transport.Conn) (*Worker, error) {
	cfg = cfg.withDefaults()
	w := &Worker{
		cfg:       cfg,
		loop:      newLoop(cfg.Logger),
		start:     cfg.Timers.Now(),
		schedByID: make(map[protocol.SchedID]*peer),
		idByPeer:  make(map[*peer]protocol.SchedID),
		freeSlots: cfg.Slots,
		running:   make(map[uint64]*runningCopy),
		parked:    make(map[int][]protocol.LostReservation),
	}
	w.offerTimerEv = &internalEvent{fn: w.offerTimerFired}
	w.offerTimerFn = func() { w.post(w.offerTimerEv, nil) }
	pcfg := protocol.Config{Mode: cfg.Mode, RetryJitter: defaultRetryJitter}.WithDefaults()
	// No Pool: the core runs on this worker's handler loop alone, so it
	// recycles its entries and rounds through a pool of its own.
	w.core = protocol.NewWorker(cluster.MachineID(cfg.ID), pcfg, protocol.WorkerEnv{
		Now:       w.now,
		Rand:      rand.New(rand.NewSource(int64(cfg.ID)*7919 + 5)),
		FreeSlots: func() int { return w.freeSlots },
		Cap:       cfg.Cap,
		Place:     w.place,
		Stats:     &w.stats,
	})
	for i, conn := range conns {
		p := &peer{conn: conn, hello: wire.Hello{Role: wire.RoleScheduler, ID: uint32(i)}}
		w.scheds = append(w.scheds, p)
		if err := conn.Send(w.helloMsg()); err != nil {
			// Ownership of every conn transferred here: close them all on
			// a partial failure or a retrying supervisor leaks sockets
			// (and phantom registrations at the already-greeted
			// schedulers).
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
	}
	return w, nil
}

// now is the worker's virtual clock (see Scheduler.now).
func (w *Worker) now() float64 {
	return w.cfg.Timers.Now().Sub(w.start).Seconds() / w.cfg.TimeScale
}

// wall is how long virtual seconds take on the wall clock.
func (w *Worker) wall(virtual float64) time.Duration {
	return time.Duration(virtual * w.cfg.TimeScale * float64(time.Second))
}

// helloMsg builds this worker's registration Hello: identity, slots,
// speed and per-slot capacity.
func (w *Worker) helloMsg() *wire.Hello {
	return &wire.Hello{Role: wire.RoleWorker, ID: w.cfg.ID, Slots: uint32(w.cfg.Slots),
		Speed: w.cfg.Speed, CapCPU: w.cfg.Cap.CPU, CapMem: w.cfg.Cap.Mem}
}

// Run processes messages until Stop; call in a goroutine.
func (w *Worker) Run() {
	for _, p := range w.scheds {
		go w.loop.readFrom(p)
	}
	for {
		select {
		case <-w.loop.done:
			w.drain()
			return
		case env := <-w.loop.inbox:
			w.step(env)
		}
	}
}

// step is one turn of the worker (see Scheduler.step): one inbox entry
// handled to completion.
func (w *Worker) step(env envelope) {
	if env.err != nil {
		w.onSchedDisconnect(env.from)
	} else {
		w.handle(env)
		env.release()
	}
}

// onSchedDisconnect unwinds state tied to a lost scheduler connection:
// the core drops its reservation entries and moves on every round that
// was waiting on it (protocol.Worker.DropSched).
func (w *Worker) onSchedDisconnect(p *peer) {
	if p == nil {
		return
	}
	// Close our half: the reader may have abandoned the stream after a
	// known-type decode failure, and the scheduler must see the break
	// rather than keep committing state into a half-open socket.
	p.conn.Close()
	idx := -1
	for i, sp := range w.scheds {
		if sp == p {
			w.scheds[i] = nil // keep the dial-order fallback honest
			idx = i
		}
	}
	if idx >= 0 && idx < len(w.cfg.SchedulerAddrs) {
		w.redial(idx)
	}
	sid, learned := w.idByPeer[p]
	if !learned {
		// The peer never sent a Reserve, so no reservations, offers, or
		// rounds reference it — and guessing its identity from dial
		// order could purge a HEALTHY scheduler's state if the operator
		// ordered -schedulers differently from the -id assignment.
		return
	}
	w.loop.logf("scheduler %d connection lost; dropping its reservations", sid)
	if cur, ok := w.schedByID[sid]; ok && cur == p {
		delete(w.schedByID, sid)
	}
	delete(w.idByPeer, p)
	acts, lost := w.core.DropSched(sid)
	if len(lost) > 0 && idx >= 0 {
		// Park the discarded inventory for the re-registration Hello; a
		// second disconnect of the same slot before reconnecting cannot
		// happen (the slot is nil until attachSched repopulates it).
		w.parked[idx] = lost
	}
	w.exec(acts)
}

// redial retries a lost scheduler's TCP address in the background until
// it answers, then hands the fresh connection to the loop via
// ReconnectScheduler. One goroutine per disconnect; it exits when the
// worker stops or the dial lands.
func (w *Worker) redial(idx int) {
	addr := w.cfg.SchedulerAddrs[idx]
	w.loop.logf("re-dialing scheduler slot %d (%s) every %v", idx, addr, redialInterval)
	go func() {
		for {
			select {
			case <-w.loop.done:
				return
			case <-time.After(redialInterval):
			}
			conn, err := transport.Dial(addr)
			if err != nil {
				continue
			}
			w.ReconnectScheduler(idx, conn)
			return
		}
	}()
}

// ReconnectScheduler hands the worker a replacement connection for the
// scheduler at dial-order slot idx (the slot NewWorkerConns assigned the
// original connection). The worker re-registers over it with a Hello
// carrying its running-copy and lost-reservation inventory, which is how
// a restarted scheduler reconstructs placement state. Safe to call from
// any goroutine; the connection is adopted (and closed on rejection —
// slot still occupied or worker stopped).
//
// The reader starts here, after the attach is queued: whatever it reads
// lands in the inbox behind the attach, and a rejected attach closes the
// conn, so the reader's error finds a peer nobody owns. No loop turn
// starts a goroutine.
func (w *Worker) ReconnectScheduler(idx int, conn transport.Conn) {
	p := &peer{conn: conn, hello: wire.Hello{Role: wire.RoleScheduler, ID: uint32(idx)}}
	w.post(&internalEvent{fn: func() { w.attachSched(idx, p) }}, nil)
	// If the loop is already stopped the post was dropped; close the
	// conn so a late redial doesn't leak a socket.
	select {
	case <-w.loop.done:
		conn.Close()
	default:
		go w.loop.readFrom(p)
	}
}

// attachSched adopts p, a replacement scheduler connection: re-register
// with the running copies placed by that slot's previous instance (so
// the restarted scheduler reconciles instead of double-placing) plus the
// reservation counts DropSched parked, and re-point in-flight completion
// reports at the new connection.
func (w *Worker) attachSched(idx int, p *peer) {
	if idx < 0 || idx >= len(w.scheds) || w.scheds[idx] != nil {
		p.conn.Close()
		return
	}
	hello := w.helloMsg()
	now := w.now()
	var mine []*runningCopy
	for _, rc := range w.running {
		if rc.sidx == idx {
			mine = append(mine, rc)
		}
	}
	// Deterministic inventory order: the scheduler rebuilds copies in
	// Hello order, and tests pin that.
	sort.Slice(mine, func(i, j int) bool { return mine[i].seq < mine[j].seq })
	for _, rc := range mine {
		rc.from = p // completion report goes to the new instance
		rem := rc.msg.Duration - (now - rc.startedVirt)
		if rem < 0 {
			rem = 0
		}
		hello.Running = append(hello.Running, wire.RunningCopy{
			JobID:       rc.msg.JobID,
			Seq:         rc.seq,
			Phase:       rc.msg.Phase,
			TaskIndex:   rc.msg.TaskIndex,
			Speculative: rc.msg.Speculative,
			Remaining:   rem,
		})
	}
	for _, lr := range w.parked[idx] {
		hello.Reservations = append(hello.Reservations, wire.JobReservation{
			JobID: uint64(lr.Job), Count: uint32(lr.Count),
		})
	}
	delete(w.parked, idx)
	w.loop.logf("reattached scheduler slot %d: reporting %d running copies, %d reservation entries",
		idx, len(hello.Running), len(hello.Reservations))
	if err := p.conn.Send(hello); err != nil {
		w.loop.logf("re-registration to scheduler slot %d failed: %v", idx, err)
		p.conn.Close()
		return
	}
	w.scheds[idx] = p
}

// Stop terminates the worker; Run reports in-flight copies as killed on
// its way out so schedulers requeue the lost work instead of waiting on
// a dead connection.
func (w *Worker) Stop() {
	w.loop.stop()
}

// drain kills every emulated copy, reporting each to its scheduler, then
// closes the connections.
func (w *Worker) drain() {
	seqs := make([]uint64, 0, len(w.running))
	for seq := range w.running {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs) // report in placement order, not map order
	for _, seq := range seqs {
		rc := w.running[seq]
		w.sendTaskDone(rc.from, wire.TaskDone{
			JobID:     rc.msg.JobID,
			Seq:       seq,
			Phase:     rc.msg.Phase,
			TaskIndex: rc.msg.TaskIndex,
			Killed:    true,
		})
		delete(w.running, seq)
		w.stopCopy(rc)
	}
	for _, p := range w.scheds {
		if p != nil {
			p.conn.Close()
		}
	}
}

// sendTaskDone reports a copy's end to its scheduler.
func (w *Worker) sendTaskDone(to *peer, td wire.TaskDone) {
	td.WorkerID = w.cfg.ID
	w.out.taskDone = td
	w.loop.send(to, &w.out.taskDone)
}

// post enqueues an internal event onto the worker's own loop.
func (w *Worker) post(msg interface{}, from *peer) {
	w.loop.post(msg, from)
}

// Stats returns a snapshot of the worker's protocol counters
// (negotiation rounds started/placed), taken on the worker loop so the
// read never races message handling. A stopped worker returns the zero
// value.
func (w *Worker) Stats() protocol.Stats {
	ch := make(chan protocol.Stats, 1)
	w.post(&internalEvent{fn: func() { ch <- w.stats }}, nil)
	select {
	case st := <-ch:
		return st
	case <-w.loop.done:
		return protocol.Stats{}
	}
}

// internalEvent lets executor goroutines and timers run closures on the
// loop goroutine; it never crosses the wire.
type internalEvent struct{ fn func() }

func (w *Worker) handle(env envelope) {
	switch m := env.msg.(type) {
	case *wire.Reserve:
		sid := protocol.SchedID(m.SchedulerID)
		w.schedByID[sid] = env.from
		w.idByPeer[env.from] = sid
		w.exec(w.core.AddReservation(sid, cluster.JobID(m.JobID), m.VirtualSize, int(m.RemTasks),
			cluster.Resources{CPU: m.DemandCPU, Mem: m.DemandMem}))
	case *wire.Assign, *wire.Refuse, *wire.NoTask:
		w.onReply(env.from, env.msg.(wire.Message))
	case *wire.Kill:
		w.onKill(m)
	case *internalEvent:
		m.fn()
	}
}

// schedID resolves a connection back to its scheduler identity:
// learned mapping first, dial order as the fallback before any Reserve
// has taught it.
func (w *Worker) schedID(p *peer) protocol.SchedID {
	if id, ok := w.idByPeer[p]; ok {
		return id
	}
	for i, sp := range w.scheds {
		if sp == p {
			return protocol.SchedID(i)
		}
	}
	return protocol.SchedID(p.hello.ID)
}

// schedPeer resolves a scheduler identity to its connection. The
// dial-order fallback only applies before any Reserve has taught the
// mapping; a disconnected scheduler's slot is nil-ed out so the
// fallback can never resurrect a dead connection (exec answers the
// offer JobDone itself instead).
func (w *Worker) schedPeer(id protocol.SchedID) *peer {
	if p, ok := w.schedByID[id]; ok {
		return p
	}
	if int(id) < len(w.scheds) {
		return w.scheds[id] // may be nil after a disconnect
	}
	return nil
}

// onReply hands a scheduler's reply to the core under the offer number it
// carries.
func (w *Worker) onReply(from *peer, m wire.Message) {
	rep, seq, ok := replyFromWire(m, w.schedID(from))
	if !ok {
		return
	}
	a, _ := m.(*wire.Assign) // nil for the task-less replies
	w.curReply.seq, w.curReply.from, w.curReply.msg = seq, from, a
	acts, live := w.core.OnReply(seq, rep)
	w.exec(acts)
	w.curReply.msg = nil
	if live || a == nil {
		return
	}
	// Stale reply: the offer was already resolved (first delivery of a
	// duplicate, a reply that lost to its own timeout, or a round torn
	// down by a disconnect). Refusals and no-tasks just vanish, but a
	// stale Assign carries a task the scheduler has committed a slot
	// for: if it did not start here (no running copy under this seq),
	// reject it explicitly so the scheduler unwinds the copy and
	// requeues instead of waiting on a report that will never come. A
	// duplicate of an assign that DID start is dropped silently — the
	// single running copy will report once.
	if _, started := w.running[seq]; !started {
		w.stats.StaleAssigns++
		w.sendTaskDone(from, wire.TaskDone{
			JobID: a.JobID, Seq: seq, Phase: a.Phase, TaskIndex: a.TaskIndex, Killed: true,
		})
	}
}

// offerTimerFired runs on the loop when the offer timer fires: the core
// abandons every offer that has waited defaultOfferTimeout — a dropped
// offer frame or a dropped reply; if the real reply surfaces later,
// OnReply knows no such offer and onReply's stale path takes it — and the
// timer is re-aimed at the oldest offer still out, or not armed at all,
// so an idle worker holds no timer. Replies do not touch the timer: an
// offer is answered milliseconds after it is sent, so a timer stopped
// and re-armed per reply would be nearly all the timer traffic of a
// worker whose offers are never lost. An unanswered offer is therefore
// abandoned no earlier than its deadline and at most one timer tick plus
// loop latency after.
func (w *Worker) offerTimerFired() {
	now, abandoned := w.now(), w.stats.OfferTimeouts
	// May send offers of its own; offerTimerOn is still set, so they wait
	// for the re-aim below instead of arming a second timer.
	w.exec(w.core.ExpireOffers(now - defaultOfferTimeout))
	if n := w.stats.OfferTimeouts - abandoned; n > 0 {
		w.loop.logf("%d offers unanswered after %vs; abandoned", n, defaultOfferTimeout)
	}
	sentAt, waiting := w.core.OldestOffer()
	if !waiting {
		w.offerTimerOn = false
		return
	}
	// Rounded up, so never zero: a wait of nothing would fire at this same
	// instant on a simulated clock, before the offer is due on the core's.
	w.armOfferTimer(w.wall(sentAt+defaultOfferTimeout-now) + time.Nanosecond)
}

// armOfferTimer arms the offer timer to fire after d.
func (w *Worker) armOfferTimer(d time.Duration) {
	w.offerTimerOn = true
	if w.offerTimer == nil {
		w.offerTimer = w.cfg.Timers.AfterFunc(d, w.offerTimerFn)
	} else {
		w.offerTimer.Reset(d)
	}
}

// place is the core's placement callback: occupy a slot and emulate the
// copy by holding it for the scaled duration.
func (w *Worker) place(from protocol.SchedID, rep protocol.Reply) bool {
	a := w.curReply.msg
	if a == nil {
		return false
	}
	if w.freeSlots <= 0 {
		// Defensive: a stale assign with no slot behind it. Reject
		// instantly so the scheduler unwinds the copy.
		w.sendTaskDone(w.curReply.from, wire.TaskDone{
			JobID: a.JobID, Seq: w.curReply.seq, Phase: a.Phase, TaskIndex: a.TaskIndex, Killed: true,
		})
		return false
	}
	w.freeSlots--
	rc := w.newCopy()
	rc.seq, rc.msg, rc.from = w.curReply.seq, *a, w.curReply.from
	rc.sidx, rc.startedVirt = -1, w.now()
	for i, sp := range w.scheds {
		if sp == w.curReply.from {
			rc.sidx = i
		}
	}
	w.running[rc.seq] = rc
	if d := w.wall(a.Duration); rc.timer == nil {
		rc.timer = w.cfg.Timers.AfterFunc(d, func() { w.post(&rc.finish, nil) })
	} else {
		rc.timer.Reset(d)
	}
	return true
}

// newCopy takes a copy record off the free list, or builds one with its
// finish event.
func (w *Worker) newCopy() *runningCopy {
	if n := len(w.spare); n > 0 {
		rc := w.spare[n-1]
		w.spare[n-1] = nil
		w.spare = w.spare[:n-1]
		return rc
	}
	rc := &runningCopy{}
	rc.finish.fn = func() { w.copyFinished(rc) }
	return rc
}

// freeCopy puts a record back on the free list. Only a record nothing
// can still deliver for goes there: its timer stopped before it fired,
// or its finish event has reached copyFinished. A record recycled while
// its finish event was in flight would finish whatever copy was placed
// on it next.
func (w *Worker) freeCopy(rc *runningCopy) {
	w.spare = append(w.spare, rc)
}

// stopCopy stops the timer of a copy that has left w.running. If the
// timer had already fired, its finish event is on its way to the loop
// and copyFinished recycles the record when it arrives.
func (w *Worker) stopCopy(rc *runningCopy) {
	if rc.timer.Stop() {
		w.freeCopy(rc)
	}
}

// copyFinished reports a completed copy and restarts negotiation.
func (w *Worker) copyFinished(rc *runningCopy) {
	if w.running[rc.seq] != rc {
		// Killed after its timer fired: the copy was settled then, and
		// this was the record's last outstanding event.
		w.freeCopy(rc)
		return
	}
	delete(w.running, rc.seq)
	w.freeSlots++
	w.sendTaskDone(rc.from, wire.TaskDone{
		JobID:     rc.msg.JobID,
		Seq:       rc.seq,
		Phase:     rc.msg.Phase,
		TaskIndex: rc.msg.TaskIndex,
		Duration:  rc.msg.Duration,
	})
	w.freeCopy(rc)
	w.exec(w.core.Kick())
}

// onKill stops a racing copy early: the scheduler settled the race and
// expects no report for this copy.
func (w *Worker) onKill(m *wire.Kill) {
	rc := w.running[m.Seq]
	if rc == nil {
		return // already finished; our TaskDone crossed the Kill
	}
	delete(w.running, m.Seq)
	w.stopCopy(rc)
	w.freeSlots++
	w.exec(w.core.Kick())
}

// exec realizes a core action list: offers become frames carrying the
// core's number for them, retry arms become timers.
func (w *Worker) exec(acts []protocol.WAction) {
	var unsent []protocol.WAction
	for i := range acts {
		a := acts[i]
		switch a.Kind {
		case protocol.WSendOffer:
			p := w.schedPeer(a.Sched)
			if p == nil {
				// No connection for this scheduler (stale referral):
				// answered JobDone below so the round moves on — left
				// alone it would hold one of the worker's negotiation
				// slots until the offer timed out.
				unsent = append(unsent, a)
				continue
			}
			w.out.offer = wire.Offer{
				JobID:     uint64(a.Job),
				WorkerID:  w.cfg.ID,
				Seq:       a.Seq,
				Refusable: a.Refusable,
				GetTask:   a.GetTask,
				FreeSlots: uint32(w.freeSlots),
			}
			w.loop.send(p, &w.out.offer)
			if !w.offerTimerOn {
				w.armOfferTimer(w.wall(defaultOfferTimeout))
			}
		case protocol.WArmRetry:
			// Generation-tag each arm: a RetryFired event already queued
			// from an older timer must not reach the core after a newer
			// arm/cancel, or the core's armed flag desyncs and timers
			// multiply. Stop any previous timer before overwriting it.
			if w.retry != nil {
				w.retry.Stop()
			}
			w.retryGen++
			gen := w.retryGen
			w.retry = w.cfg.Timers.AfterFunc(w.wall(a.Delay), func() {
				w.post(&internalEvent{fn: func() {
					if gen != w.retryGen {
						return // superseded by a later arm or cancel
					}
					w.exec(w.core.RetryFired())
				}}, nil)
			})
		case protocol.WCancelRetry:
			w.retryGen++
			if w.retry != nil {
				w.retry.Stop()
				w.retry = nil
			}
		}
	}
	// Only now: the core's pool reuses acts on re-entry.
	for _, a := range unsent {
		next, _ := w.core.OnReply(a.Seq, protocol.Reply{Job: a.Job, From: a.Sched, JobDone: true})
		w.exec(next)
	}
}
