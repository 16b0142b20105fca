package live

import (
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
)

// TestWorkerGroupMultiplexed boots one scheduler and a 48-worker group
// sharing a single timer wheel, then runs jobs through the full
// protocol. Every worker must register (the scheduler sees the whole
// group) and every job must complete — retries, offer timeouts, and
// copy-completion timers all route through the one shared wheel.
func TestWorkerGroupMultiplexed(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{
		ID: 0, Addr: "127.0.0.1:0", NumSchedulers: 1, TimeScale: 0.01, Seed: 7, Timers: testWheel(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	defer s.Stop()

	const n = 48
	g, err := StartWorkerGroup(WorkerGroupConfig{
		Base: WorkerConfig{ID: 0, Slots: 2, SchedulerAddrs: []string{s.Addr()}, TimeScale: 0.01},
		N:    n,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if len(g.Workers) != n {
		t.Fatalf("group has %d workers, want %d", len(g.Workers), n)
	}
	if g.wheel == nil {
		t.Fatal("group did not create its shared wheel")
	}
	for i, w := range g.Workers {
		if w.cfg.ID != uint32(i) {
			t.Fatalf("worker %d has ID %d, want consecutive IDs", i, w.cfg.ID)
		}
		if w.cfg.Timers != protocol.TimerService(g.wheel) {
			t.Fatalf("worker %d does not share the group wheel", i)
		}
	}

	// Wait until the scheduler has registered the full group.
	deadline := time.Now().Add(10 * time.Second)
	for registeredWorkers(s) != n {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler registered %d of %d workers", registeredWorkers(s), n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	c, err := NewClient(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mkJob := func(id int) *cluster.Job {
		p := &cluster.Phase{MeanTaskDuration: 0.5, Tasks: make([]*cluster.Task, 4)}
		for i := range p.Tasks {
			p.Tasks[i] = &cluster.Task{}
		}
		return cluster.NewJob(cluster.JobID(id), "", 0, []*cluster.Phase{p})
	}
	const jobs = 30
	for j := 0; j < jobs; j++ {
		if err := c.Submit(SubmitFromJob(mkJob(j + 1))); err != nil {
			t.Fatalf("submitting job %d: %v", j+1, err)
		}
	}
	done := make(map[uint64]bool, jobs)
	for len(done) < jobs {
		jc, err := c.WaitAny()
		if err != nil {
			t.Fatalf("waiting for completions with %d of %d done: %v", len(done), jobs, err)
		}
		if jc.Aborted {
			t.Fatalf("job %d aborted", jc.JobID)
		}
		done[jc.JobID] = true
	}
}

// TestWorkerGroupPartialBootCleansUp points the group at a dead address:
// boot must fail and leave nothing running.
func TestWorkerGroupPartialBootCleansUp(t *testing.T) {
	_, err := StartWorkerGroup(WorkerGroupConfig{
		Base: WorkerConfig{ID: 0, Slots: 2, SchedulerAddrs: []string{"127.0.0.1:1"}},
		N:    4,
	})
	if err == nil {
		t.Fatal("boot against a dead scheduler address succeeded")
	}
}

// registeredWorkers reports (on the scheduler loop) how many workers
// have said Hello to s.
func registeredWorkers(s *Scheduler) int {
	return onLoop(s.loop, func() int { return len(s.workers) })
}
