package live

import (
	"fmt"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/wire"
)

// The sim-vs-live parity contract: the decentralized simulator adapter
// (internal/decentral — direct in-process routing) and the live message
// path (wire codec -> seq-tracked reply routing, i.e. exactly the bridge
// the live nodes run on) must drive the shared protocol cores to
// IDENTICAL decisions. wireSystem below is the live message path under a
// deterministic clock: same engine, same latency model, same executor —
// but every scheduler<->worker interaction is encoded to a wire frame,
// decoded back, and routed by Seq, like over TCP. Any information the
// bridge loses — a field not carried, float truncation, entry-resolution
// differences — shows up as a diverging assignment log.
//
// wireSystem is a zero-fault differential and nothing else: it delivers
// every frame once, in order, and has no recovery machinery, so it says
// nothing about loss. What the live nodes do when frames go missing is
// tested on the nodes themselves, stepped on this same engine's clock
// (virtualCluster).

// parityCfg mirrors the decentral config used for the reference run.
var parityCfg = decentral.Config{
	Mode:          decentral.ModeHopper,
	NumSchedulers: 3,
	CheckInterval: 0.1,
}

// scriptedDuration is the shared deterministic service-time script:
// every fifth original task straggles hard; re-draws (speculative
// copies) and other tasks are fast. This forces the speculation path —
// wants queues, capacity-driven victims, copy races, kills — through
// both stacks.
func scriptedDuration(t *cluster.Task, spec bool) float64 {
	if !spec && len(t.Copies) == 0 && t.Index%5 == 0 {
		return 8 * t.Phase.MeanTaskDuration
	}
	return 0.6 * t.Phase.MeanTaskDuration
}

// parityJobs builds the workload fresh for each run (jobs are mutated by
// execution): multi-phase DAGs with transfer gating, replica locality,
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
			// double-fire regime the exactly-once lifecycle must absorb
			// identically on both stacks.
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

// runDecentralParity replays the workload on the plain simulator adapter
// and returns the assignment log.
func runDecentralParity(t *testing.T, seed int64, machines, slots int) []string {
	t.Helper()
	eng := simulator.New(seed)
	ms := cluster.NewMachines(machines, slots)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	exec.DurationOverride = scriptedDuration
	sys := decentral.New(eng, exec, parityCfg)
	var log []string
	sys.OnPlace = func(tk *cluster.Task, m cluster.MachineID, spec bool) {
		log = append(log, fmt.Sprintf("%d/%d/%d@%d spec=%v", tk.Job.ID, tk.Phase.Index, tk.Index, m, spec))
	}
	jobs := parityJobs(machines)
	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() { sys.Arrive(j) })
	}
	eng.Run()
	if len(sys.Completed()) != len(jobs) {
		t.Fatalf("decentral run completed %d of %d jobs", len(sys.Completed()), len(jobs))
	}
	return log
}

// --- the wire-backed deterministic live stack ---------------------------

type wsSched struct {
	core      *protocol.Sched
	busyUntil float64
	tickerOn  bool
}

type wsWorker struct {
	sys     *wireSystem
	id      cluster.MachineID
	core    *protocol.Worker
	retryEv *simulator.Event
}

type wireSystem struct {
	cfg   decentral.Config
	eng   *simulator.Engine
	exec  *cluster.Executor
	stats protocol.Stats

	scheds  []*wsSched
	workers []*wsWorker

	byJob map[cluster.JobID]*wsSched
	jobs  map[cluster.JobID]*cluster.Job
	done  int
	next  int

	log []string
}

func newWireSystem(eng *simulator.Engine, exec *cluster.Executor, cfg decentral.Config) *wireSystem {
	cfg = cfg.WithDefaults()
	s := &wireSystem{
		cfg:   cfg,
		eng:   eng,
		exec:  exec,
		byJob: make(map[cluster.JobID]*wsSched),
		jobs:  make(map[cluster.JobID]*cluster.Job),
	}
	pcfg := protocol.Config{
		Mode:             cfg.Mode,
		NumSchedulers:    cfg.NumSchedulers,
		ProbeRatio:       cfg.ProbeRatio,
		RefusalThreshold: cfg.RefusalThreshold,
		Epsilon:          cfg.Epsilon,
		FairnessOff:      cfg.FairnessOff,
		Spec:             cfg.Spec,
	}.WithDefaults()
	for i := 0; i < cfg.NumSchedulers; i++ {
		sc := &wsSched{}
		sc.core = protocol.NewSched(protocol.SchedID(i), pcfg, protocol.SchedEnv{
			Now:           func() float64 { return eng.Now() },
			Rand:          eng.Rand(),
			TotalSlots:    func() int { return exec.Machines.TotalSlots() },
			RandomWorkers: exec.Machines.RandomSubset,
			Stats:         &s.stats,
		})
		s.scheds = append(s.scheds, sc)
	}
	for wi := range exec.Machines.All {
		w := &wsWorker{sys: s, id: cluster.MachineID(wi)}
		w.core = protocol.NewWorker(w.id, pcfg, protocol.WorkerEnv{
			Now:       func() float64 { return eng.Now() },
			Rand:      eng.Rand(),
			FreeSlots: func() int { return exec.Machines.Get(w.id).Free },
			Place:     w.place,
			Stats:     &s.stats,
		})
		s.workers = append(s.workers, w)
	}
	exec.OnTaskDone = func(t *cluster.Task, winner *cluster.Copy) {
		if sc := s.byJob[t.Job.ID]; sc != nil {
			sc.core.TaskDone(t, winner)
		}
	}
	exec.OnPhaseRunnable = func(p *cluster.Phase) {
		if sc := s.byJob[p.Job.ID]; sc != nil {
			s.sendProbes(sc, sc.core.PhaseRunnable(p))
		}
	}
	exec.OnJobDone = func(j *cluster.Job) {
		if sc := s.byJob[j.ID]; sc != nil {
			sc.core.JobDone(j)
			delete(s.byJob, j.ID)
		}
		s.done++
	}
	exec.OnSlotFree = func(m cluster.MachineID) {
		w := s.workers[m]
		w.exec(w.core.Kick())
	}
	return s
}

// shove carries a frame through the codec: encode, then decode — the
// exact bytes TCP would carry, as the chaos suite's virtualConn does.
func shove(m wire.Message) wire.Message {
	frame := wire.Append(nil, m)
	got, err := wire.Decode(wire.MsgType(frame[4]), frame[5:])
	if err != nil {
		panic(err)
	}
	return got
}

func (s *wireSystem) arrive(j *cluster.Job) {
	sc := s.scheds[s.next%len(s.scheds)]
	s.next++
	s.byJob[j.ID] = sc
	s.jobs[j.ID] = j
	sc.core.Admit(j)
	s.ensureTicker(sc)
	s.exec.AdmitJob(j)
}

func (s *wireSystem) ensureTicker(sc *wsSched) {
	if sc.tickerOn || !sc.core.NeedsTicker() {
		return
	}
	sc.tickerOn = true
	var tick func()
	tick = func() {
		if !sc.core.HasJobs() {
			sc.tickerOn = false
			return
		}
		s.sendProbes(sc, sc.core.ScanSpec())
		s.eng.PostAfter(s.cfg.CheckInterval, tick)
	}
	s.eng.PostAfter(s.cfg.CheckInterval, tick)
}

func (s *wireSystem) schedIndex(sc *wsSched) int {
	for i, x := range s.scheds {
		if x == sc {
			return i
		}
	}
	panic("unknown scheduler")
}

// sendProbes ships core probes as Reserve frames.
func (s *wireSystem) sendProbes(sc *wsSched, probes []protocol.Probe) {
	si := s.schedIndex(sc)
	for _, p := range probes {
		wi := int(p.Worker)
		msg := shove(&wire.Reserve{
			JobID:       uint64(p.Job),
			SchedulerID: uint32(si),
			VirtualSize: p.VS,
			RemTasks:    uint32(p.Rem),
		})
		rsv := msg.(*wire.Reserve)
		w := s.workers[wi]
		s.eng.PostAfter(s.cfg.MsgLatency, func() {
			w.exec(w.core.AddReservation(protocol.SchedID(rsv.SchedulerID), cluster.JobID(rsv.JobID), rsv.VirtualSize, int(rsv.RemTasks), cluster.Resources{CPU: rsv.DemandCPU, Mem: rsv.DemandMem}))
		})
	}
}

// toSched models the scheduler's serial message-processing queue —
// identical to decentral.System.toScheduler.
func (s *wireSystem) toSched(sc *wsSched, fn func()) {
	arrive := s.eng.Now() + s.cfg.MsgLatency
	handle := arrive
	if sc.busyUntil > handle {
		handle = sc.busyUntil
	}
	handle += decentral.ProcDelay
	sc.busyUntil = handle
	s.eng.Post(handle, fn)
}

// taskOf resolves the wire task coordinates back to the object.
func (s *wireSystem) taskOf(rep protocol.Reply) *cluster.Task {
	j := s.jobs[rep.Job]
	if j == nil || rep.Phase >= len(j.Phases) || rep.TaskIndex >= len(j.Phases[rep.Phase].Tasks) {
		return nil
	}
	return j.Phases[rep.Phase].Tasks[rep.TaskIndex]
}

// place is the worker placement callback — Executor.PlaceOn, reported to
// the scheduler core as decentral reports it, plus the parity log, with
// the same placement-failed rollback message flow as decentral (routed
// through the scheduler's processing queue).
func (w *wsWorker) place(from protocol.SchedID, rep protocol.Reply) bool {
	s := w.sys
	t := rep.Task
	sc := s.scheds[from]
	if t.State == cluster.TaskDone {
		jobID := t.Job.ID
		s.toSched(sc, func() { sc.core.PlacementFailed(jobID) })
		return false
	}
	s.exec.PlaceOn(t, w.id, rep.Spec)
	sc.core.CopyPlaced(t)
	s.log = append(s.log, fmt.Sprintf("%d/%d/%d@%d spec=%v", t.Job.ID, t.Phase.Index, t.Index, w.id, rep.Spec))
	return true
}

// sendReply ships a scheduler core reply back to the worker as its wire
// frame.
func (s *wireSystem) sendReply(si int, w *wsWorker, seq uint64, rep protocol.Reply) {
	var frames replyFrames
	back := shove(frames.wireFromReply(rep, seq, 0))
	s.eng.PostAfter(s.cfg.MsgLatency, func() { s.deliverReply(si, w, back) })
}

// deliverReply is the worker-side arrival of a scheduler reply: routed
// to its round by Seq, exactly like the live worker's onReply. Faithful
// delivery answers every offer once, so a reply no offer is waiting for
// is a harness bug.
func (s *wireSystem) deliverReply(si int, w *wsWorker, back wire.Message) {
	rep2, seq2, ok := replyFromWire(back, protocol.SchedID(si))
	if !ok {
		panic("unroutable reply frame")
	}
	if rep2.HasTask {
		rep2.Task = s.taskOf(rep2)
	}
	acts, live := w.core.OnReply(seq2, rep2)
	if !live {
		panic("stale reply in deterministic harness")
	}
	w.exec(acts)
}

// exec realizes worker core actions: offers become Offer frames,
// replies come back as Assign/Refuse/NoTask frames routed by
// Seq through the same bridge the live worker uses.
func (w *wsWorker) exec(acts []protocol.WAction) {
	s := w.sys
	for i := range acts {
		a := acts[i]
		switch a.Kind {
		case protocol.WSendOffer:
			si := int(a.Sched)
			sc := s.scheds[si]
			msg := shove(&wire.Offer{
				JobID:     uint64(a.Job),
				WorkerID:  uint32(w.id),
				Seq:       a.Seq,
				Refusable: a.Refusable,
				GetTask:   a.GetTask,
			})
			off := msg.(*wire.Offer)
			s.toSched(sc, func() {
				var rep protocol.Reply
				if off.GetTask {
					rep = sc.core.HandleGetTask(cluster.JobID(off.JobID), cluster.MachineID(off.WorkerID))
				} else {
					rep = sc.core.HandleOffer(cluster.JobID(off.JobID), cluster.MachineID(off.WorkerID), off.Refusable)
				}
				s.sendReply(si, w, off.Seq, rep)
			})
		case protocol.WArmRetry:
			w.retryEv = s.eng.After(a.Delay, func() {
				w.retryEv = nil
				w.exec(w.core.RetryFired())
			})
		case protocol.WCancelRetry:
			if w.retryEv != nil {
				w.retryEv.Cancel()
				w.retryEv = nil
			}
		}
	}
}

// runWireParity replays the workload through the wire-backed stack.
func runWireParity(t *testing.T, seed int64, machines, slots int) []string {
	t.Helper()
	eng := simulator.New(seed)
	ms := cluster.NewMachines(machines, slots)
	exec := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	exec.DurationOverride = scriptedDuration
	sys := newWireSystem(eng, exec, parityCfg)
	jobs := parityJobs(machines)
	for _, j := range jobs {
		j := j
		eng.At(j.Arrival, func() { sys.arrive(j) })
	}
	eng.Run()
	if sys.done != len(jobs) {
		t.Fatalf("wire run completed %d of %d jobs", sys.done, len(jobs))
	}
	return sys.log
}

// TestSimLiveParity is the acceptance gate for the protocol-core
// extraction: on a multi-scheduler, multi-phase, speculation-triggering
// workload with scripted service times, the simulator adapter and the
// wire message path must produce the identical (job, task, worker)
// assignment sequence.
func TestSimLiveParity(t *testing.T) {
	const seed, machines, slots = 42, 8, 2
	simLog := runDecentralParity(t, seed, machines, slots)
	wireLog := runWireParity(t, seed, machines, slots)
	if len(simLog) == 0 {
		t.Fatal("empty assignment log")
	}
	specSeen := false
	for _, line := range simLog {
		if line[len(line)-4:] == "true" {
			specSeen = true
			break
		}
	}
	if !specSeen {
		t.Fatal("workload triggered no speculation — parity scenario too weak")
	}
	if len(simLog) != len(wireLog) {
		t.Fatalf("assignment counts diverge: sim %d vs wire %d", len(simLog), len(wireLog))
	}
	for i := range simLog {
		if simLog[i] != wireLog[i] {
			t.Fatalf("assignment %d diverges:\n sim  %s\n wire %s", i, simLog[i], wireLog[i])
		}
	}
}

// TestSimLiveParityMultipleSeeds widens the contract across seeds (and
// thus across different probe-target and G3 draw sequences).
func TestSimLiveParityMultipleSeeds(t *testing.T) {
	for _, seed := range []int64{7, 1234} {
		simLog := runDecentralParity(t, seed, 6, 2)
		wireLog := runWireParity(t, seed, 6, 2)
		if len(simLog) != len(wireLog) {
			t.Fatalf("seed %d: counts diverge sim %d wire %d", seed, len(simLog), len(wireLog))
		}
		for i := range simLog {
			if simLog[i] != wireLog[i] {
				t.Fatalf("seed %d: assignment %d diverges:\n sim  %s\n wire %s", seed, i, simLog[i], wireLog[i])
			}
		}
	}
}
