package live

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/metrics"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
	"github.com/hopper-sim/hopper/internal/workload"
)

// driveScale is the small clusters' time scale: a one-second task holds
// its slot for 10ms of wall clock.
const driveScale = 0.01

// driveCluster boots a 2-scheduler, 4-worker, 2-slot cluster, dials one
// client per scheduler, and returns six Spark-like jobs (1-second tasks,
// about eight per job) sized for it.
func driveCluster(t *testing.T) ([]*Client, *workload.Trace) {
	t.Helper()
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: 2, Workers: 4, Slots: 2, TimeScale: driveScale, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)
	var clients []*Client
	for _, a := range lc.Addrs {
		c, err := NewClient(a)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	p := workload.Sparkify(workload.Facebook())
	p.JobSizeCap = 8
	tr := workload.Generate(workload.Config{
		Profile: p, NumJobs: 6, TargetUtilization: 0.5, TotalSlots: 8, NumMachines: 4, Seed: 5,
	})
	return clients, tr
}

// TestDriveClosesLedger drives both arrival shapes on a healthy cluster:
// every job is submitted once, reported once and completed, and the run
// holds each by ID.
func TestDriveClosesLedger(t *testing.T) {
	for _, tc := range []struct {
		name     string
		arrivals func(*workload.Trace) []Arrival
	}{
		{"trace", func(tr *workload.Trace) []Arrival { return TraceArrivals(tr.Jobs, driveScale, 1) }},
		{"poisson", func(tr *workload.Trace) []Arrival {
			return PoissonArrivals(tr.Jobs, 40, 200*time.Millisecond, 3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clients, tr := driveCluster(t)
			arrivals := tc.arrivals(tr)
			if len(arrivals) == 0 {
				t.Fatal("no arrivals")
			}
			for i := 1; i < len(arrivals); i++ {
				if arrivals[i].At < arrivals[i-1].At {
					t.Fatalf("arrival %d due at %v, before its predecessor's %v", i, arrivals[i].At, arrivals[i-1].At)
				}
			}
			run, led, err := Drive(clients, arrivals, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			n := len(arrivals)
			if led.Submitted != n || led.Completed != n || led.Aborted != 0 || led.Unreported != 0 {
				t.Fatalf("ledger %+v, want all %d jobs completed", led, n)
			}
			if len(run.Jobs) != n {
				t.Fatalf("run holds %d jobs, want %d", len(run.Jobs), n)
			}
			due := make(map[uint64]Arrival, n)
			for _, a := range arrivals {
				due[a.Job.JobID] = a
			}
			for i, j := range run.Jobs {
				a, ok := due[uint64(j.ID)]
				if !ok || (i > 0 && j.ID <= run.Jobs[i-1].ID) {
					t.Fatalf("run job %d: not in the run, or out of ID order", j.ID)
				}
				tasks := 0
				for _, p := range a.Job.Phases {
					tasks += int(p.NumTasks)
				}
				if j.Tasks != tasks || j.DAGLen != len(a.Job.Phases) || j.Completion <= 0 {
					t.Fatalf("run job %+v does not match its submission", j)
				}
			}
		})
	}
}

// TestDriveSilentSchedulerReturnsAtDrain pins the deadline: a scheduler
// with no workers never reports, and the driver still returns one drain
// after the last submission with every job unreported and its clients
// closed.
func TestDriveSilentSchedulerReturnsAtDrain(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{Addr: "127.0.0.1:0", TimeScale: driveScale})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	defer s.Stop()
	c, err := NewClient(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []Arrival{
		{Job: SimpleJob(1, "a", 2, 1)},
		{At: 20 * time.Millisecond, Job: SimpleJob(2, "b", 2, 1)},
	}
	const drain = 300 * time.Millisecond
	start := time.Now()
	run, led, err := Drive([]*Client{c}, arrivals, drain)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < drain || took > drain+2*time.Second {
		t.Fatalf("returned after %v, want about %v", took, drain+20*time.Millisecond)
	}
	led.WallTime = 0
	if want := (Ledger{Submitted: 2, Unreported: 2}); led != want || len(run.Jobs) != 0 {
		t.Fatalf("ledger %+v with %d jobs, want %+v and none", led, len(run.Jobs), want)
	}
	if err := c.Submit(SimpleJob(3, "c", 1, 1)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("submit after the run: %v, want the client closed", err)
	}
}

// TestDriveIgnoresForeignCompletions plays the scheduler on the far end
// of a client's connection: it reports a job the run never sent before
// the run's own, and only the run's reaches the ledger.
func TestDriveIgnoresForeignCompletions(t *testing.T) {
	se, ce := transport.Pair(0)
	defer se.Close()
	c, err := NewClientConn(ce)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, want := range []wire.MsgType{wire.THello, wire.TSubmitJob} {
			m, err := se.Recv()
			if err != nil || m.Type() != want {
				t.Errorf("scheduler end read %v (%v), want a %s", m, err, want)
				return
			}
		}
		se.Send(&wire.JobComplete{JobID: 99, Completion: 1})
		se.Send(&wire.JobComplete{JobID: 7, Completion: 2.5, TasksRun: 3})
	}()
	run, led, err := Drive([]*Client{c}, []Arrival{{Job: SimpleJob(7, "mine", 3, 1)}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	led.WallTime = 0
	if want := (Ledger{Submitted: 1, Completed: 1}); led != want {
		t.Fatalf("ledger %+v, want %+v", led, want)
	}
	if want := []metrics.JobResult{{ID: 7, Tasks: 3, DAGLen: 1, Completion: 2.5}}; !reflect.DeepEqual(run.Jobs, want) {
		t.Fatalf("run jobs %+v, want %+v", run.Jobs, want)
	}
}

// TestLocalClusterSchedulerRestart is the crash/restart drill over
// loopback TCP: scheduler 0 dies with copies running on the workers and
// comes back on the same address. The workers re-dial it on their own
// and re-register with their inventory, and the resubmitted jobs adopt
// the copies still running instead of placing them again.
func TestLocalClusterSchedulerRestart(t *testing.T) {
	const (
		nJobs   = 4
		nTasks  = 4
		meanDur = 50.0 // virtual seconds: half a second of wall clock
	)
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: 2, Workers: 4, Slots: 2, TimeScale: driveScale, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)
	c1, err := NewClient(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Arrival, nJobs)
	for i := range jobs {
		jobs[i].Job = SimpleJob(uint64(9000+i), fmt.Sprintf("drill-%d", i), nTasks, meanDur)
		if err := c1.Submit(jobs[i].Job); err != nil {
			t.Fatal(err)
		}
	}
	// Kill once a copy is running: the shortest task holds its slot for
	// about a sixth of a second, several re-dial periods.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var placed int64
		for _, w := range lc.Workers {
			placed += w.Stats().RoundsPlaced
		}
		if placed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no copy placed within 10s")
		}
	}
	lc.KillScheduler(0)
	c1.Close()
	if err := lc.RestartScheduler(0); err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, led, err := Drive([]*Client{c2}, jobs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if led.Completed != nJobs {
		t.Fatalf("ledger %+v, want all %d jobs completed after the restart", led, nJobs)
	}
	st := lc.Scheds[0].Stats()
	if st.ReconciledCopies == 0 {
		t.Fatalf("no running copy reconciled after the restart: %+v", st)
	}
	if st.OccupancyLeaks != 0 {
		t.Fatalf("%d occupancy leaks after the restart", st.OccupancyLeaks)
	}
}
