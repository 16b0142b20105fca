package live

import (
	"fmt"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// bootCluster starts nSched schedulers and nWork workers on loopback TCP,
// returning their addresses and a shutdown function.
func bootCluster(t *testing.T, nSched, nWork, slots int, scale float64) ([]string, func()) {
	t.Helper()
	var scheds []*Scheduler
	var addrs []string
	for i := 0; i < nSched; i++ {
		s, err := NewScheduler(SchedulerConfig{
			ID:              uint32(i),
			Addr:            "127.0.0.1:0",
			NumSchedulers:   nSched,
			Beta:            1.5,
			MeanTaskSeconds: 1.0,
			TimeScale:       scale,
			Seed:            int64(i + 1),
		})
		if err != nil {
			t.Fatalf("scheduler %d: %v", i, err)
		}
		go s.Run()
		scheds = append(scheds, s)
		addrs = append(addrs, s.Addr())
	}
	var workers []*Worker
	for i := 0; i < nWork; i++ {
		w, err := NewWorker(WorkerConfig{
			ID:             uint32(i),
			Slots:          slots,
			SchedulerAddrs: addrs,
			TimeScale:      scale,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		go w.Run()
		workers = append(workers, w)
	}
	return addrs, func() {
		for _, w := range workers {
			w.Stop()
		}
		for _, s := range scheds {
			s.Stop()
		}
	}
}

func TestLiveSingleJobCompletes(t *testing.T) {
	addrs, stop := bootCluster(t, 1, 3, 2, 0.02)
	defer stop()

	c, err := NewClient(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Submit(SimpleJob(1, "test", 5, 1.0)); err != nil {
		t.Fatal(err)
	}
	jc, err := c.WaitJob(1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if jc.TasksRun != 5 {
		t.Fatalf("TasksRun = %d, want 5", jc.TasksRun)
	}
	if jc.Completion <= 0 {
		t.Fatal("non-positive completion")
	}
}

func TestLiveMultiJobMultiScheduler(t *testing.T) {
	addrs, stop := bootCluster(t, 2, 4, 2, 0.02)
	defer stop()

	var clients []*Client
	for _, a := range addrs {
		c, err := NewClient(a)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}

	const jobs = 6
	for i := 0; i < jobs; i++ {
		c := clients[i%2]
		if err := c.Submit(SimpleJob(uint64(i+1), fmt.Sprintf("j%d", i), 3+i, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(60 * time.Second)
	results := make(chan *wire.JobComplete, jobs)
	for ci, c := range clients {
		mine := 0
		for i := 0; i < jobs; i++ {
			if i%2 == ci {
				mine++
			}
		}
		go func(c *Client, n int) {
			for k := 0; k < n; k++ {
				jc, err := c.WaitAny()
				if err != nil {
					return
				}
				results <- jc
			}
		}(c, mine)
	}
	seen := map[uint64]bool{}
	for got < jobs {
		select {
		case jc := <-results:
			if seen[jc.JobID] {
				t.Fatalf("job %d completed twice", jc.JobID)
			}
			seen[jc.JobID] = true
			got++
		case <-deadline:
			t.Fatalf("completed %d of %d jobs", got, jobs)
		}
	}
}

// TestLiveInMemoryCluster runs a whole cluster in one process over
// transport.Pair — loopback sockets with no listener, same node code —
// which is what the -race CI tier drives.
func TestLiveInMemoryCluster(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{ID: 0, NumSchedulers: 1, TimeScale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	defer s.Stop()

	var workers []*Worker
	for i := 0; i < 3; i++ {
		se, we := transport.Pair(256)
		s.ServeConn(se)
		w, err := NewWorkerConns(WorkerConfig{ID: uint32(i), Slots: 2, TimeScale: 0.02}, []transport.Conn{we})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
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

	for i := 1; i <= 3; i++ {
		if err := client.Submit(SimpleJob(uint64(i), fmt.Sprintf("mem-%d", i), 4, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for k := 0; k < 3; k++ {
		jc, err := client.WaitAny()
		if err != nil {
			t.Fatal(err)
		}
		if jc.Aborted {
			t.Fatalf("job %d aborted: %s", jc.JobID, jc.Error)
		}
		seen[jc.JobID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("completed %d distinct jobs, want 3", len(seen))
	}
}

// TestMalformedSubmissionsRejected pins the admission validation: bad
// dependency indices, empty phases, and duplicate job IDs come back as
// aborted JobCompletes and must not crash or wedge the scheduler.
func TestMalformedSubmissionsRejected(t *testing.T) {
	addrs, stop := bootCluster(t, 1, 2, 2, 0.02)
	defer stop()
	c, err := NewClient(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := []*wire.SubmitJob{
		{JobID: 100, Phases: []wire.PhaseSpec{
			{MeanDur: 1, NumTasks: 1},
			{Deps: []uint16{7}, MeanDur: 1, NumTasks: 1}, // out of range
		}},
		{JobID: 101, Phases: []wire.PhaseSpec{
			{Deps: []uint16{0}, MeanDur: 1, NumTasks: 1}, // self/forward dep
		}},
		{JobID: 102, Phases: []wire.PhaseSpec{{MeanDur: 1, NumTasks: 0}}}, // empty phase
		{JobID: 103}, // no phases
	}
	for _, m := range bad {
		if err := c.Submit(m); err != nil {
			t.Fatal(err)
		}
		jc, err := c.WaitJob(m.JobID, 10*time.Second)
		if err != nil {
			t.Fatalf("job %d: scheduler did not answer (crashed?): %v", m.JobID, err)
		}
		if !jc.Aborted || jc.Error == "" {
			t.Fatalf("job %d accepted despite malformed spec: %+v", m.JobID, jc)
		}
	}

	// Duplicate ID: first admission runs, second is rejected.
	if err := c.Submit(SimpleJob(104, "orig", 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(SimpleJob(104, "dup", 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	sawDup, sawDone := false, false
	for i := 0; i < 2; i++ {
		jc, err := c.WaitJob(104, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if jc.Aborted {
			sawDup = true
		} else {
			sawDone = true
		}
	}
	if !sawDup || !sawDone {
		t.Fatalf("duplicate-ID handling wrong: dupRejected=%v originalCompleted=%v", sawDup, sawDone)
	}

	// The scheduler survived all of it.
	if err := c.Submit(SimpleJob(105, "after", 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	if jc, err := c.WaitJob(105, 15*time.Second); err != nil || jc.Aborted {
		t.Fatalf("scheduler unhealthy after malformed submissions: jc=%+v err=%v", jc, err)
	}
}

// TestSchedulerDrainFailsPendingJobs pins the graceful-drain contract:
// stopping a scheduler mid-job delivers an aborted JobComplete to the
// client instead of a dead connection.
func TestSchedulerDrainFailsPendingJobs(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{
		ID: 0, Addr: "127.0.0.1:0", NumSchedulers: 1, TimeScale: 0.01, Seed: 5,
		// Scripted service times: every copy takes 60 virtual seconds, so
		// the job cannot finish before the drain.
		DurationOverride: func(*cluster.Task, bool) float64 { return 60 },
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()

	w, err := NewWorker(WorkerConfig{ID: 0, Slots: 2, SchedulerAddrs: []string{s.Addr()}, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()

	c, err := NewClient(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit(SimpleJob(9, "doomed", 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the tasks start
	s.Stop()

	jc, err := c.WaitJob(9, 10*time.Second)
	if err != nil {
		t.Fatalf("no completion after drain: %v", err)
	}
	if !jc.Aborted || jc.Error == "" {
		t.Fatalf("drain completion not marked aborted: %+v", jc)
	}
}

// TestWorkerDrainReportsKills pins the worker half of the drain path:
// stopping workers mid-task sends killed TaskDones (the scheduler
// requeues), and a later scheduler drain still fails the job explicitly.
func TestWorkerDrainReportsKills(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{
		ID: 0, Addr: "127.0.0.1:0", NumSchedulers: 1, TimeScale: 0.01, Seed: 6,
		DurationOverride: func(*cluster.Task, bool) float64 { return 60 },
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()

	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{ID: uint32(i), Slots: 2, SchedulerAddrs: []string{s.Addr()}, TimeScale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run()
		workers = append(workers, w)
	}

	c, err := NewClient(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit(SimpleJob(11, "migrant", 4, 1.0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // tasks running on both workers
	for _, w := range workers {
		w.Stop() // drain: killed TaskDones flow back, tasks requeue
	}
	time.Sleep(100 * time.Millisecond)
	s.Stop() // no workers left: drain fails the job explicitly

	jc, err := c.WaitJob(11, 10*time.Second)
	if err != nil {
		t.Fatalf("no completion after drains: %v", err)
	}
	if !jc.Aborted {
		t.Fatalf("expected aborted completion, got %+v", jc)
	}
}

func TestLiveMultiPhaseJob(t *testing.T) {
	addrs, stop := bootCluster(t, 1, 3, 2, 0.02)
	defer stop()

	c, err := NewClient(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := &wire.SubmitJob{
		JobID: 42,
		Name:  "two-phase",
		Phases: []wire.PhaseSpec{
			{MeanDur: 1, NumTasks: 4},
			{Deps: []uint16{0}, MeanDur: 1, NumTasks: 2},
		},
	}
	if err := c.Submit(job); err != nil {
		t.Fatal(err)
	}
	jc, err := c.WaitJob(42, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if jc.TasksRun != 6 {
		t.Fatalf("TasksRun = %d, want 6", jc.TasksRun)
	}
}
