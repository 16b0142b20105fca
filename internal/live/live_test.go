package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/core"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/speculation"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// testWheel is a live test's clock: a timer wheel like the one every
// shipped cluster runs its nodes on, stopped when the test ends. A test
// with several nodes shares one, as a cluster does.
func testWheel(t testing.TB) *protocol.TimerWheel {
	w := protocol.NewTimerWheel(time.Millisecond, 512)
	t.Cleanup(w.Stop)
	return w
}

// waitJob blocks until job id is reported on c or timeout passes,
// discarding other jobs' completions. A draining scheduler fails its jobs
// instead of dropping them: check JobComplete.Aborted. On timeout c is
// closed, since its reader is still blocked in Recv.
func waitJob(c *Client, id uint64, timeout time.Duration) (wire.JobComplete, error) {
	type result struct {
		jc  wire.JobComplete
		err error
	}
	got := make(chan result, 1)
	go func() {
		for {
			jc, err := c.WaitAny()
			if err != nil || jc.JobID == id {
				got <- result{jc, err}
				return
			}
		}
	}()
	select {
	case r := <-got:
		return r.jc, r.err
	case <-time.After(timeout):
		c.Close()
		return wire.JobComplete{}, fmt.Errorf("timeout waiting for job %d (connection closed)", id)
	}
}

func TestLiveSingleJobCompletes(t *testing.T) {
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: 1, Workers: 3, Slots: 2, TimeScale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()

	c, err := NewClient(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Submit(SimpleJob(1, "test", 5, 1.0)); err != nil {
		t.Fatal(err)
	}
	jc, err := waitJob(c, 1, 30*time.Second)
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
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: 2, Workers: 4, Slots: 2, TimeScale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()

	var clients []*Client
	for _, a := range lc.Addrs {
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
	results := make(chan wire.JobComplete, jobs)
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
	wheel := testWheel(t)
	s, err := NewScheduler(SchedulerConfig{ID: 0, NumSchedulers: 1, TimeScale: 0.02, Seed: 3, Timers: wheel})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	defer s.Stop()

	var workers []*Worker
	for i := 0; i < 3; i++ {
		se, we := transport.Pair(256)
		s.ServeConn(se)
		w, err := NewWorkerConns(WorkerConfig{ID: uint32(i), Slots: 2, TimeScale: 0.02, Timers: wheel}, []transport.Conn{we})
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
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: 1, Workers: 2, Slots: 2, TimeScale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()
	c, err := NewClient(lc.Addrs[0])
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
		jc, err := waitJob(c, m.JobID, 10*time.Second)
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
		jc, err := waitJob(c, 104, 15*time.Second)
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
	if jc, err := waitJob(c, 105, 15*time.Second); err != nil || jc.Aborted {
		t.Fatalf("scheduler unhealthy after malformed submissions: jc=%+v err=%v", jc, err)
	}
}

// TestSchedulerDrainFailsPendingJobs pins the graceful-drain contract:
// stopping a scheduler mid-job delivers an aborted JobComplete to the
// client instead of a dead connection.
func TestSchedulerDrainFailsPendingJobs(t *testing.T) {
	wheel := testWheel(t)
	s, err := NewScheduler(SchedulerConfig{
		ID: 0, Addr: "127.0.0.1:0", NumSchedulers: 1, TimeScale: 0.01, Seed: 5, Timers: wheel,
		// Scripted service times: every copy takes 60 virtual seconds, so
		// the job cannot finish before the drain.
		DurationOverride: func(*cluster.Task, bool) float64 { return 60 },
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()

	w, err := NewWorker(WorkerConfig{ID: 0, Slots: 2, SchedulerAddrs: []string{s.Addr()}, TimeScale: 0.01, Timers: wheel})
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

	jc, err := waitJob(c, 9, 10*time.Second)
	if err != nil {
		t.Fatalf("no completion after drain: %v", err)
	}
	if !jc.Aborted || jc.Error == "" {
		t.Fatalf("drain completion not marked aborted: %+v", jc)
	}
}

// drainLog is a client link that records, in one log shared by every
// job's link, the job each aborted completion names and each close.
type drainLog struct {
	transport.Conn
	job uint64
	log *[]string
}

func (d *drainLog) Send(m wire.Message) error {
	if jc, ok := m.(*wire.JobComplete); ok && jc.Aborted {
		*d.log = append(*d.log, fmt.Sprint("abort ", jc.JobID))
	}
	return nil
}
func (d *drainLog) Close() error {
	*d.log = append(*d.log, fmt.Sprint("close ", d.job))
	return nil
}
func (d *drainLog) RemoteAddr() string { return "drain log" }

// TestSchedulerDrainsJobsInIDOrder: a scheduler stopped with 24 jobs
// admitted, each from a client link of its own, fails them in ascending
// job ID, and a killed one closes their links in that order, whatever
// order its job map walks in.
func TestSchedulerDrainsJobsInIDOrder(t *testing.T) {
	const jobs = 24
	for _, kill := range []bool{false, true} {
		s, err := NewScheduler(SchedulerConfig{Timers: &stillTimers{}})
		if err != nil {
			t.Fatal(err)
		}
		var log, want []string
		s.handle(envelope{from: &peer{conn: &drainLog{log: new([]string)}}, msg: &wire.Hello{Role: wire.RoleWorker, ID: 1, Slots: 4}})
		for _, id := range rand.New(rand.NewSource(1)).Perm(jobs) {
			s.admit(&peer{conn: &drainLog{job: uint64(id + 1), log: &log}}, SimpleJob(uint64(id+1), "held", 1, 1))
		}
		verb := "abort "
		if kill {
			verb = "close "
			s.Kill()
		} else {
			s.Stop()
		}
		s.drain()
		for id := 1; id <= jobs; id++ {
			want = append(want, fmt.Sprint(verb, id))
		}
		if !slices.Equal(log, want) {
			t.Fatalf("kill %v: drained as %v, want %v", kill, log, want)
		}
	}
}

// TestWorkerDrainReportsKills pins the worker half of the drain path:
// stopping workers mid-task sends killed TaskDones (the scheduler
// requeues), and a later scheduler drain still fails the job explicitly.
func TestWorkerDrainReportsKills(t *testing.T) {
	wheel := testWheel(t)
	s, err := NewScheduler(SchedulerConfig{
		ID: 0, Addr: "127.0.0.1:0", NumSchedulers: 1, TimeScale: 0.01, Seed: 6, Timers: wheel,
		DurationOverride: func(*cluster.Task, bool) float64 { return 60 },
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()

	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{ID: uint32(i), Slots: 2, SchedulerAddrs: []string{s.Addr()}, TimeScale: 0.01, Timers: wheel})
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

	jc, err := waitJob(c, 11, 10*time.Second)
	if err != nil {
		t.Fatalf("no completion after drains: %v", err)
	}
	if !jc.Aborted {
		t.Fatalf("expected aborted completion, got %+v", jc)
	}
}

func TestLiveMultiPhaseJob(t *testing.T) {
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: 1, Workers: 3, Slots: 2, TimeScale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()

	c, err := NewClient(lc.Addrs[0])
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
	jc, err := waitJob(c, 42, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if jc.TasksRun != 6 {
		t.Fatalf("TasksRun = %d, want 6", jc.TasksRun)
	}
}

// reserveLog is a worker's end of a link that keeps the Reserves sent on
// it.
type reserveLog struct {
	transport.Conn
	sent []wire.Reserve
}

func (l *reserveLog) Send(m wire.Message) error {
	if r, ok := m.(*wire.Reserve); ok {
		l.sent = append(l.sent, *r)
	}
	return nil
}
func (l *reserveLog) RemoteAddr() string { return "reserve-log" }

// TestBetaSetsOnlyTheServiceDraw: SchedulerConfig.Beta is the tail the
// service times are drawn from, not the estimator's start. The estimator
// starts at the shared prior, as on both simulator planes, so the first
// Reserve carries the virtual size the prior gives.
func TestBetaSetsOnlyTheServiceDraw(t *testing.T) {
	const beta, tasks = 1.9, 4
	s, err := NewScheduler(SchedulerConfig{ID: 0, NumSchedulers: 1, Seed: 1, Beta: beta, Timers: testWheel(t)})
	if err != nil {
		t.Fatal(err)
	}
	if s.model.Beta != beta {
		t.Fatalf("service draws use beta %v, want %v", s.model.Beta, beta)
	}
	link := &reserveLog{}
	s.handle(envelope{from: &peer{conn: link}, msg: &wire.Hello{Role: wire.RoleWorker, ID: 7, Slots: 4}})
	s.handle(envelope{from: &peer{conn: &discardConn{}}, msg: SimpleJob(1, "prior", tasks, 1.0)})
	if len(link.sent) == 0 {
		t.Fatal("no Reserve sent")
	}
	prior := speculation.Config{}.WithDefaults().BetaPrior
	if got, want := link.sent[0].VirtualSize, core.VirtualSize(tasks, prior, 1); got != want {
		t.Fatalf("first Reserve's virtual size %v, want %v from the prior %v (beta %v gives %v)",
			got, want, prior, beta, core.VirtualSize(tasks, beta, 1))
	}
}

// offerTap is a scheduler's end of a link that counts the offers reaching
// the scheduler: the Sparrow modes' task pulls and the Hopper family's
// refusable offers.
type offerTap struct {
	transport.Conn
	pulls, refusable *atomic.Int64
}

func (c offerTap) Recv() (wire.Message, error) {
	m, err := c.Conn.Recv()
	if o, ok := m.(*wire.Offer); ok {
		if o.GetTask {
			c.pulls.Add(1)
		}
		if o.Refusable {
			c.refusable.Add(1)
		}
	}
	return m, err
}

// cacheAimed is how many probe targets s's load cache has aimed
// (protocol.LoadCachePolicy.CacheHits), read on s's loop; 0 when s probes
// at random. The policy is private to the core, so the test reaches it
// by reflection.
func cacheAimed(s *Scheduler) int64 {
	return onLoop(s.loop, func() int64 {
		p := reflect.ValueOf(s.core).Elem().FieldByName("policy").Elem()
		if p.Type() != reflect.TypeOf(&protocol.LoadCachePolicy{}) {
			return 0
		}
		return p.Elem().FieldByName("CacheHits").Int()
	})
}

// TestLiveModes runs each protocol mode live: two schedulers and six
// workers over transport.Pair finish eight jobs with nothing leaked, and
// each mode's own path ran — task pulls (GetTask, answered by
// HandleGetTask) in the Sparrow modes, refusable offers in the Hopper
// family, and probes aimed by the load the offers reported under
// ModeLoadCache.
func TestLiveModes(t *testing.T) {
	for _, mode := range []protocol.Mode{protocol.ModeHopper, protocol.ModeSparrow, protocol.ModeSparrowSRPT, protocol.ModeLoadCache} {
		t.Run(mode.String(), func(t *testing.T) {
			var pulls, refusable atomic.Int64
			wheel := testWheel(t)
			var scheds []*Scheduler
			var clients []*Client
			for i := 0; i < 2; i++ {
				s, err := NewScheduler(SchedulerConfig{ID: uint32(i), Mode: mode, NumSchedulers: 2, TimeScale: 0.02, Seed: int64(i), Timers: wheel})
				if err != nil {
					t.Fatal(err)
				}
				go s.Run()
				defer s.Stop()
				scheds = append(scheds, s)
				cs, cc := transport.Pair(256)
				s.ServeConn(cs)
				c, err := NewClientConn(cc)
				if err != nil {
					t.Fatal(err)
				}
				clients = append(clients, c)
			}
			for i := 0; i < 6; i++ {
				var conns []transport.Conn
				for _, s := range scheds {
					se, we := transport.Pair(256)
					s.ServeConn(offerTap{se, &pulls, &refusable})
					conns = append(conns, we)
				}
				w, err := NewWorkerConns(WorkerConfig{ID: uint32(i), Slots: 2, Mode: mode, TimeScale: 0.02, Timers: wheel}, conns)
				if err != nil {
					t.Fatal(err)
				}
				go w.Run()
				defer w.Stop()
			}
			var jobs []Arrival
			for i := 0; i < 8; i++ {
				jobs = append(jobs, Arrival{Job: SimpleJob(uint64(i+1), fmt.Sprintf("%v-%d", mode, i), 3+i, 1)})
			}
			_, led, err := Drive(clients, jobs, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if led.Completed != len(jobs) {
				t.Fatalf("ledger %+v, want all %d jobs completed", led, len(jobs))
			}
			var aimed int64
			for _, s := range scheds {
				st := s.Stats()
				if st.OccupancyLeaks+st.DoubleWakeups+st.SilentDemand != 0 {
					t.Fatalf("scheduler %d: %d occupancy leaks, %d double wakeups, %d silent demand",
						s.cfg.ID, st.OccupancyLeaks, st.DoubleWakeups, st.SilentDemand)
				}
				aimed += cacheAimed(s)
			}
			sparrow := mode == protocol.ModeSparrow || mode == protocol.ModeSparrowSRPT
			if sparrow != (pulls.Load() > 0) || sparrow == (refusable.Load() > 0) {
				t.Fatalf("%d task pulls and %d refusable offers reached the schedulers", pulls.Load(), refusable.Load())
			}
			if (mode == protocol.ModeLoadCache) != (aimed > 0) {
				t.Fatalf("the load cache aimed %d probe targets", aimed)
			}
		})
	}
}
