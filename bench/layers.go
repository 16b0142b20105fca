package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/core"
	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// The layer drivers call one exported function of one layer in a loop,
// sized from what the run just counted, and report the cost of a call.
// They run only in traced runs, after the measured repetitions.

// perOp calls round until budget has passed and returns nanoseconds per
// operation. round times its own measured part, so its set-up is free.
func perOp(budget time.Duration, round func() (ops int, took time.Duration)) float64 {
	var ops int
	var took time.Duration
	for start := time.Now(); ops == 0 || time.Since(start) < budget; {
		n, d := round()
		ops += n
		took += d
	}
	return float64(took.Nanoseconds()) / float64(ops)
}

// driverBudget is how long one layer driver runs.
func driverBudget(cfg runConfig) time.Duration {
	if cfg.smoke {
		return 10 * time.Millisecond
	}
	return 400 * time.Millisecond
}

// driveSimLayers runs the drivers of the layers a simulated workload
// exercises.
func driveSimLayers(rep *report, spec simSpec, peakPending, peakActive, meanRunning int, cfg runConfig) {
	d := driverBudget(cfg)
	ms := spec.newMachines()
	rep.set("simulator.queue_ns_per_op", driveQueue(d, peakPending))
	rep.set("cluster.place_ns", drivePlace(d, spec))
	rep.set("cluster.subset_ns_per_target", driveSubset(d, ms))
	scan, victim := driveSpeculation(d, spec, max(meanRunning, 1))
	rep.set("speculation.scan_us", scan/1e3)
	rep.set("speculation.best_victim_ns", victim)
	if spec.decentralized() {
		driveProtocolCores(rep, d, ms)
	} else {
		rep.set("core.allocate_us", driveAllocate(d, max(peakActive, 1), spec.totalSlots())/1e3)
	}
	if spec.kind == decentralLoadCache {
		targets, observe := driveLoadCache(d, ms)
		rep.set("protocol.loadcache_targets_ns", targets)
		rep.set("protocol.loadcache_observe_ns", observe)
	}
}

// driveLiveLayers runs the drivers of the layers the live workload
// exercises, the codec on the message mix its window sent.
func driveLiveLayers(rep *report, spec liveSpec, mix wireMix, cfg runConfig) error {
	d := driverBudget(cfg)
	enc, dec, bytes, err := driveWire(d, mix)
	if err != nil {
		return err
	}
	rep.set("wire.encode_ns_per_msg", enc)
	rep.set("wire.decode_ns_per_msg", dec)
	rep.set("wire.bytes_per_msg", bytes)
	loop, mem, err := driveTransport(d)
	if err != nil {
		return err
	}
	rep.set("transport.loopback_msgs_per_s", loop)
	rep.set("transport.mempair_msgs_per_s", mem)
	rep.set("protocol.timerwheel_arm_ns", driveTimerWheel(d))
	rep.set("metrics.hist_record_ns", driveHistogram(d))
	driveProtocolCores(rep, d, cluster.NewMachines(spec.workers, spec.slots))
	return nil
}

// driveProtocolCores times the scheduler and worker cores both the
// simulator adapter and the live nodes run.
func driveProtocolCores(rep *report, d time.Duration, ms *cluster.Machines) {
	offer, runnable := driveSched(d, ms)
	rep.set("protocol.handle_offer_ns", offer)
	rep.set("protocol.phase_runnable_ns_per_probe", runnable)
	rep.set("protocol.add_reservation_ns", driveAddReservation(d))
}

// driveQueue is the bare event queue: pending events in flight, every
// firing posts its successor, so each operation is one post and one pop
// at the workload's queue depth.
func driveQueue(d time.Duration, pending int) float64 {
	pending = max(pending, 1)
	return perOp(d, func() (int, time.Duration) {
		eng := simulator.New(1)
		rng := rand.New(rand.NewSource(1))
		left := 4 * pending
		var fire func(any)
		fire = func(a any) {
			if left > 0 {
				left--
				eng.PostAfterArg(0.0005+0.01*rng.Float64(), fire, a)
			}
		}
		for i := 0; i < pending; i++ {
			eng.Post(rng.Float64(), func() { fire(nil) })
		}
		t0 := time.Now()
		eng.Run()
		return int(eng.Fired), time.Since(t0)
	})
}

// oneJob builds a single-phase job of n tasks; admit makes it runnable.
func oneJob(id cluster.JobID, n int, mean float64) *cluster.Job {
	ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	return cluster.NewJob(id, "", 0, []*cluster.Phase{ph})
}

// drivePlace is Executor.PlaceOn through to the copy's completion on an
// engine that runs nothing else.
func drivePlace(d time.Duration, spec simSpec) float64 {
	id := cluster.JobID(0)
	return perOp(d, func() (int, time.Duration) {
		eng := simulator.New(1)
		ms := spec.newMachines()
		x := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
		n := min(len(ms.All), 2000)
		id++
		j := oneJob(id, n, 1)
		x.AdmitJob(j)
		t0 := time.Now()
		for i, t := range j.Phases[0].Tasks {
			x.PlaceOn(t, cluster.MachineID(i), false)
		}
		eng.Run()
		return n, time.Since(t0)
	})
}

func driveSubset(d time.Duration, ms *cluster.Machines) float64 {
	const k = 4
	s := ms.NewSubsetSampler()
	rng := rand.New(rand.NewSource(1))
	dst := make([]cluster.MachineID, 0, k)
	return perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			dst = s.RandomSubset(rng, k, dst)
		}
		return 1000 * k, time.Since(t0)
	})
}

// driveSpeculation times the straggler scan and the victim search over
// a running set the size of the run's mean, 12 s into 30 s tasks: past
// the detection delay, so copies are observable.
func driveSpeculation(d time.Duration, spec simSpec, running int) (scanNs, victimNs float64) {
	eng := simulator.New(1)
	ms := spec.newMachines()
	x := cluster.NewExecutor(eng, ms, cluster.DefaultExecModel())
	j := oneJob(1, running, 30)
	x.AdmitJob(j)
	tasks := j.Phases[0].Tasks
	slot := 0
	for _, m := range ms.All {
		for s := 0; s < m.Slots && slot < len(tasks); s++ {
			x.PlaceOn(tasks[slot], m.ID, false)
			slot++
		}
	}
	tasks = tasks[:slot]
	now := eng.RunUntil(12)
	mon := speculation.NewMonitor(speculation.Config{}.WithDefaults(), rand.New(rand.NewSource(1)))
	var dst []*cluster.Task
	scanNs = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		dst = mon.CandidatesInto(now, tasks, -1, dst)
		return 1, time.Since(t0)
	})
	victimNs = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		mon.BestVictim(now, tasks, 2)
		return 1, time.Since(t0)
	})
	return scanNs, victimNs
}

func driveAllocate(d time.Duration, jobs, slots int) float64 {
	rng := rand.New(rand.NewSource(1))
	demand := make([]core.JobDemand, jobs)
	for i := range demand {
		demand[i] = core.JobDemand{ID: int64(i), Remaining: 1 + rng.Intn(400), Alpha: 1}
	}
	var dst []int
	return perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		dst = core.AllocateFairInto(dst, demand, slots, 1.5, 0.1)
		return 1, time.Since(t0)
	})
}

// schedEnv is a scheduler core's environment over a real machine set
// and a manual clock.
func schedEnv(ms *cluster.Machines, now *float64, stats *protocol.Stats) protocol.SchedEnv {
	return protocol.SchedEnv{
		Now:           func() float64 { return *now },
		Rand:          rand.New(rand.NewSource(1)),
		TotalSlots:    ms.TotalSlots,
		RandomWorkers: ms.RandomSubset,
		WorkerCap:     func(m cluster.MachineID) cluster.Resources { return ms.All[m].Cap },
		Stats:         stats,
	}
}

// driveSched times the scheduler core: PhaseRunnable per probe it
// emits, and HandleOffer on the hand-out path (a 1000-task job offered
// slots until every task is out).
func driveSched(d time.Duration, ms *cluster.Machines) (offerNs, runnableNs float64) {
	const tasks = 1000
	var now float64
	var stats protocol.Stats
	cfg := protocol.Config{Mode: protocol.ModeHopper, NumSchedulers: 50}.WithDefaults()
	sc := protocol.NewSched(0, cfg, schedEnv(ms, &now, &stats))
	id := cluster.JobID(0)
	var offerOps, runOps int
	var offerTook, runTook time.Duration
	for start := time.Now(); offerOps == 0 || time.Since(start) < 2*d; {
		id++
		j := oneJob(id, tasks, 30)
		sc.Admit(j)
		j.Phases[0].MarkRunnable()
		t0 := time.Now()
		probes := sc.PhaseRunnable(j.Phases[0])
		runTook += time.Since(t0)
		runOps += len(probes)

		t0 = time.Now()
		for i := 0; i < tasks; i++ {
			sc.HandleOffer(j.ID, cluster.MachineID(i%len(ms.All)), true)
		}
		offerTook += time.Since(t0)
		offerOps += tasks
		sc.JobDone(j)
	}
	return float64(offerTook.Nanoseconds()) / float64(offerOps), float64(runTook.Nanoseconds()) / float64(runOps)
}

// driveAddReservation times the worker core taking probes for 64 jobs
// of 50 schedulers with no free slot, so nothing but the queue moves.
func driveAddReservation(d time.Duration) float64 {
	var now float64
	var stats protocol.Stats
	cfg := protocol.Config{Mode: protocol.ModeHopper, NumSchedulers: 50}.WithDefaults()
	w := protocol.NewWorker(0, cfg, protocol.WorkerEnv{
		Now:       func() float64 { return now },
		Rand:      rand.New(rand.NewSource(1)),
		FreeSlots: func() int { return 0 },
		Place:     func(protocol.SchedID, protocol.Reply) bool { return true },
		Stats:     &stats,
	})
	i := 0
	return perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for k := 0; k < 1000; k++ {
			i++
			w.AddReservation(protocol.SchedID(i%50), cluster.JobID(i%64), float64(10+i%90), 1+i%40, cluster.Resources{})
		}
		return 1000, time.Since(t0)
	})
}

// driveLoadCache times the load-cache policy's write path (one offer's
// piggybacked load) and read path (two targets for one task, the
// mode's probe ratio), refilling the cache between reads because reads
// decrement it.
func driveLoadCache(d time.Duration, ms *cluster.Machines) (targetsNs, observeNs float64) {
	var now float64
	var stats protocol.Stats
	env := schedEnv(ms, &now, &stats)
	p := protocol.NewLoadCachePolicy(1)
	n := len(ms.All)
	fill := func() {
		for w := 0; w < n; w++ {
			m := ms.All[w]
			p.ObserveLoad(m.ID, m.Slots, m.Cap, now)
		}
	}
	observeNs = perOp(d, func() (int, time.Duration) {
		now += 0.01
		t0 := time.Now()
		fill()
		return n, time.Since(t0)
	})
	task := oneJob(1, 1, 30).Phases[0].Tasks[0]
	var dst []cluster.MachineID
	targetsNs = perOp(d, func() (int, time.Duration) {
		now += 0.01
		fill()
		t0 := time.Now()
		for k := 0; k < 256; k++ {
			dst = p.Targets(&env, task, 2, dst[:0])
		}
		return 256, time.Since(t0)
	})
	return targetsNs, observeNs
}

func driveTimerWheel(d time.Duration) float64 {
	w := protocol.NewTimerWheel(time.Millisecond, 512)
	defer w.Stop()
	f := func() {}
	return perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for k := 0; k < 1000; k++ {
			w.AfterFunc(50*time.Millisecond, f).Stop()
		}
		return 1000, time.Since(t0)
	})
}

func driveHistogram(d time.Duration) float64 {
	var h metrics.Histogram
	i := 0
	return perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for k := 0; k < 10000; k++ {
			i++
			h.Record(time.Duration(i%5000) * time.Microsecond)
		}
		return 10000, time.Since(t0)
	})
}

// wireMix is how many of each message a live run sent.
type wireMix struct{ reserve, offer, assign, refuse, taskDone int }

// messages renders the mix as a 1024-message sample in round-robin
// order, so encode and decode see the types interleaved as a
// connection does.
func (m wireMix) messages() []wire.Message {
	kinds := []struct {
		n   int
		msg wire.Message
	}{
		{m.reserve, &wire.Reserve{JobID: 1 << 40, SchedulerID: 1, VirtualSize: 61.5, RemTasks: 46}},
		{m.offer, &wire.Offer{JobID: 1 << 40, WorkerID: 117, Seq: 90210, Refusable: true, FreeSlots: 2}},
		{m.assign, &wire.Assign{JobID: 1 << 40, Seq: 90210, Phase: 1, TaskIndex: 7, Duration: 0.83, VirtualSize: 60.2, RemTasks: 45}},
		{m.refuse, &wire.Refuse{JobID: 1 << 40, Seq: 90210, HasUnsat: true, UnsatJobID: 1<<40 + 5, UnsatVS: 12.5, VirtualSize: 61.5, RemTasks: 46}},
		{m.taskDone, &wire.TaskDone{JobID: 1 << 40, Seq: 90210, Phase: 1, TaskIndex: 7, WorkerID: 117, Duration: 0.83}},
	}
	total := 0
	for _, k := range kinds {
		total += k.n
	}
	if total == 0 {
		return []wire.Message{kinds[0].msg}
	}
	const sample = 1024
	var out []wire.Message
	acc := make([]float64, len(kinds))
	for len(out) < sample {
		for i, k := range kinds {
			acc[i] += float64(k.n) / float64(total) * float64(len(kinds))
			for acc[i] >= 1 && len(out) < sample {
				acc[i]--
				out = append(out, k.msg)
			}
		}
	}
	return out
}

// driveWire times the codec on the run's message mix.
func driveWire(d time.Duration, mix wireMix) (encodeNs, decodeNs, bytesPerMsg float64, err error) {
	msgs := mix.messages()
	frames := make([][]byte, len(msgs))
	var bytes int
	for i, m := range msgs {
		frames[i] = wire.Append(nil, m)
		bytes += len(frames[i])
	}
	var buf []byte
	encodeNs = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for _, m := range msgs {
			buf = wire.Append(buf[:0], m)
		}
		return len(msgs), time.Since(t0)
	})
	decodeNs = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for _, f := range frames {
			// A frame is a 4-byte length, a type byte, then the payload.
			if _, derr := wire.Decode(wire.MsgType(f[4]), f[5:]); derr != nil && err == nil {
				err = fmt.Errorf("wire driver: %w", derr)
			}
		}
		return len(frames), time.Since(t0)
	})
	return encodeNs, decodeNs, float64(bytes) / float64(len(msgs)), err
}

// driveConn streams Reserve frames one way over a connection pair for
// about d and returns messages per second, receiver included.
func driveConn(d time.Duration, sender, receiver transport.Conn) (float64, error) {
	const batch = 20000
	msg := &wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	var sent int
	var took time.Duration
	for start := time.Now(); sent == 0 || time.Since(start) < d; {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < batch; i++ {
				if _, err := receiver.Recv(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		t0 := time.Now()
		var sendErr error
		for i := 0; i < batch && sendErr == nil; i++ {
			sendErr = sender.Send(msg)
		}
		if sendErr != nil {
			// Unblock the receiver before reporting.
			sender.Close()
			<-done
			return 0, fmt.Errorf("transport driver: send: %w", sendErr)
		}
		if err := <-done; err != nil {
			return 0, fmt.Errorf("transport driver: recv: %w", err)
		}
		took += time.Since(t0)
		sent += batch
	}
	return float64(sent) / took.Seconds(), nil
}

// driveTransport measures the batched transport over loopback TCP and
// over the in-memory pair.
func driveTransport(d time.Duration) (loopback, mempair float64, err error) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("transport driver: %w", err)
	}
	defer ln.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	sender, err := transport.Dial(ln.Addr())
	if err != nil {
		ln.Close() // fails the pending Accept
		<-acc
		return 0, 0, fmt.Errorf("transport driver: %w", err)
	}
	defer sender.Close()
	a := <-acc
	if a.err != nil {
		return 0, 0, fmt.Errorf("transport driver: %w", a.err)
	}
	defer a.c.Close()
	if loopback, err = driveConn(d, sender, a.c); err != nil {
		return 0, 0, err
	}
	ma, mb := transport.Pair(1024)
	defer ma.Close()
	defer mb.Close()
	mempair, err = driveConn(d, ma, mb)
	return loopback, mempair, err
}
