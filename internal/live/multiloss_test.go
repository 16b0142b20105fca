package live

// Concurrent multi-worker loss: two workers each hold a copy of the SAME
// task (original + speculative race) and both connections die at once.
// Sched.CopyLost must requeue exactly once — the first loss still sees a
// live sibling and only rolls back, the second sees zero running copies
// and requeues — and the requeued task must complete on a third worker
// that held no copy. This is the multi-loss coverage the single-crash
// test (TestWorkerCrashRequeuesCopies) does not give, on goroutines and
// real connection errors; TestChaosWorkerLossMidRace replays the same
// loss from a seed on the virtual cluster.

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/transport"
)

func TestRequeueLostUnderConcurrentMultiWorkerLoss(t *testing.T) {
	const (
		jobID     = 55
		taskDur   = 100.0 // virtual seconds: 1s of wall clock at 0.01
		timeScale = 0.01
	)
	var placements atomic.Int64
	s, err := NewScheduler(SchedulerConfig{
		ID: 0, NumSchedulers: 1, TimeScale: timeScale, Seed: 4,
		// MaxCopies stays at the default 2: the capacity-driven
		// speculation path is what puts the second copy in flight.
		DurationOverride: func(*cluster.Task, bool) float64 {
			placements.Add(1)
			return taskDur
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	defer s.Stop()

	// Workers 0 and 1 first; both will end up holding a copy of the one
	// task. Worker 2 joins only after both copies are in flight, so it
	// provably holds none — it is purely the recovery target.
	var schedEnds []transport.Conn
	var nodes []*Worker
	addWorker := func(id uint32) {
		se, we := transport.Pair(256)
		s.ServeConn(se)
		schedEnds = append(schedEnds, se)
		w, err := NewWorkerConns(WorkerConfig{ID: id, Slots: 1, TimeScale: timeScale},
			[]transport.Conn{we})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		nodes = append(nodes, w)
	}
	addWorker(0)
	addWorker(1)
	defer func() {
		for _, w := range nodes {
			w.Stop()
		}
	}()

	cs, cc := transport.Pair(256)
	s.ServeConn(cs)
	client, err := NewClientConn(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Submit(SimpleJob(jobID, "multi-loss", 1, 1.0)); err != nil {
		t.Fatal(err)
	}

	// Original on one worker, speculative copy on the other.
	waitUntil(t, "both copies in flight", 10*time.Second, func() bool {
		return placements.Load() >= 2
	})
	if n := placements.Load(); n != 2 {
		t.Fatalf("placements = %d, want 2 (original + speculative copy)", n)
	}

	addWorker(2)
	waitUntil(t, "recovery worker to register", 5*time.Second, func() bool {
		return registeredWorkers(s) == 3
	})

	// Both copy-holding workers die together — no drains, just broken
	// connections racing through the scheduler loop.
	schedEnds[0].Close()
	schedEnds[1].Close()

	jc, err := client.WaitJob(jobID, 20*time.Second)
	if err != nil {
		t.Fatalf("job did not survive concurrent loss of both copy holders: %v", err)
	}
	if jc.Aborted {
		t.Fatalf("job aborted: %s", jc.Error)
	}
	if jc.TasksRun != 1 {
		t.Fatalf("TasksRun = %d, want 1", jc.TasksRun)
	}
	if n := placements.Load(); n != 3 {
		t.Fatalf("placements = %d, want 3 (two lost copies + one requeued refill)", n)
	}

	st := s.Stats()
	if st.Requeues != 1 {
		t.Errorf("Requeues = %d, want exactly 1 (first loss leaves a live sibling; only the second requeues)", st.Requeues)
	}
	if st.OccupancyLeaks != 0 {
		t.Errorf("OccupancyLeaks = %d, want 0", st.OccupancyLeaks)
	}
	if st.DoubleWakeups != 0 {
		t.Errorf("DoubleWakeups = %d, want 0", st.DoubleWakeups)
	}
}
