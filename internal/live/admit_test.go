package live

// Tests of what a submitted job costs the scheduler: the job admission
// carves from per-job slabs, the transfer-gated wakeups that wait on
// recycled timers, and the admission benchmark.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/wire"
)

// perPhaseJob is admission's job construction as it was before the
// per-job slabs: one Phase, NewTasks and PackReplicas per phase. It is
// the oracle the slab-carved job must equal.
func perPhaseJob(m *wire.SubmitJob, fallbackMean, now float64) *cluster.Job {
	var phases []*cluster.Phase
	for _, ps := range m.Phases {
		mean := ps.MeanDur
		if mean <= 0 {
			mean = fallbackMean
		}
		ph := &cluster.Phase{
			MeanTaskDuration: mean,
			TransferWork:     ps.TransferWork,
			Demand:           cluster.Resources{CPU: ps.DemandCPU, Mem: ps.DemandMem},
			Tasks:            cluster.NewTasks(int(ps.NumTasks)),
		}
		for _, d := range ps.Deps {
			ph.Deps = append(ph.Deps, int(d))
		}
		cluster.PackReplicas(ph.Tasks, func(i int) []uint32 {
			if i < len(ps.Replicas) {
				return ps.Replicas[i]
			}
			return nil
		})
		phases = append(phases, ph)
	}
	return cluster.NewJob(cluster.JobID(m.JobID), m.Name, now, phases)
}

// dagSubmit is a submission of k phases of n tasks each, a chain in
// which every phase after the first also depends on the first. Even
// phases list two replicas per task with every third group empty, odd
// ones n/2 single-replica groups; phase 1 declares a demand, and the
// last phase no mean, which admission fills in.
func dagSubmit(id uint64, k, n int) *wire.SubmitJob {
	m := &wire.SubmitJob{JobID: id, Name: "dag"}
	for p := 0; p < k; p++ {
		ps := wire.PhaseSpec{MeanDur: 1.5, NumTasks: uint32(n)}
		if p > 0 {
			ps.Deps = []uint16{uint16(p - 1)}
			ps.TransferWork = 4
		}
		if p > 1 {
			ps.Deps = append(ps.Deps, 0)
		}
		if p == 1 {
			ps.DemandCPU, ps.DemandMem = 2, 4
		}
		if p == k-1 {
			ps.MeanDur = 0
		}
		if p%2 == 0 {
			ps.Replicas = make([][]uint32, n)
			for i := range ps.Replicas {
				if i%3 != 2 {
					ps.Replicas[i] = []uint32{uint32(i), uint32(i + 7)}
				}
			}
		} else {
			ps.Replicas = make([][]uint32, n/2)
			for i := range ps.Replicas {
				ps.Replicas[i] = []uint32{uint32(2 * i)}
			}
		}
		m.Phases = append(m.Phases, ps)
	}
	return m
}

func totalTasks(m *wire.SubmitJob) int {
	n := 0
	for _, ps := range m.Phases {
		n += int(ps.NumTasks)
	}
	return n
}

// TestAdmittedJobMatchesPerPhaseConstruction: the job carved from
// per-job slabs equals, field by field, the one the per-phase
// construction builds, and every phase's Tasks and Deps and every
// task's Replicas is capped at its own end.
func TestAdmittedJobMatchesPerPhaseConstruction(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{MeanTaskSeconds: 3, Timers: &stillTimers{}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *wire.SubmitJob
	}{
		{"one phase, no replicas", SimpleJob(1, "one", 5, 2)},
		{"dag with replicas", dagSubmit(2, 4, 9)},
		{"surplus groups ignored", &wire.SubmitJob{JobID: 3, Phases: []wire.PhaseSpec{
			{MeanDur: 1, NumTasks: 2, Replicas: [][]uint32{{1}, {2, 3}, {4, 5, 6}}},
			{Deps: []uint16{0}, MeanDur: 1, NumTasks: 1, Replicas: [][]uint32{{7}, {8}}},
		}}},
		{"empty groups between full ones", &wire.SubmitJob{JobID: 4, Phases: []wire.PhaseSpec{
			{MeanDur: 1, NumTasks: 4, Replicas: [][]uint32{nil, {1, 2}, {}, {3}}},
		}}},
		{"fallback mean, deps only", &wire.SubmitJob{JobID: 5, Phases: []wire.PhaseSpec{
			{NumTasks: 3},
			{Deps: []uint16{0}, NumTasks: 2},
			{Deps: []uint16{1, 0}, NumTasks: 1, DemandCPU: 1},
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := s.jobFromSubmit(c.m, totalTasks(c.m), 1.25)
			want := perPhaseJob(c.m, 3, 1.25)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("slab-carved job differs from the per-phase one:\n got  %+v\n want %+v", got, want)
			}
			for _, p := range got.Phases {
				if cap(p.Tasks) != len(p.Tasks) || cap(p.Deps) != len(p.Deps) {
					t.Fatalf("phase %d: Tasks cap %d for %d, Deps cap %d for %d",
						p.Index, cap(p.Tasks), len(p.Tasks), cap(p.Deps), len(p.Deps))
				}
				for _, tk := range p.Tasks {
					if cap(tk.Replicas) != len(tk.Replicas) {
						t.Fatalf("%s: Replicas cap %d for %d", tk.ID(), cap(tk.Replicas), len(tk.Replicas))
					}
				}
			}
		})
	}
}

// TestAdmittedJobAllocsPerJob pins admission's job construction at the
// same allocation count for 3 phases of 8 tasks as for 12 phases of 512:
// its phases, tasks, deps and replicas come from per-job slabs.
func TestAdmittedJobAllocsPerJob(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{Timers: &stillTimers{}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(k, n int) float64 {
		m := dagSubmit(1, k, n)
		total := totalTasks(m)
		return testing.AllocsPerRun(50, func() { s.jobFromSubmit(m, total, 0) })
	}
	small, large := allocs(3, 8), allocs(12, 512)
	if small != large {
		t.Fatalf("a job costs %.0f allocations at 3 phases of 8 tasks and %.0f at 12 of 512", small, large)
	}
}

// readFrame decodes m's frame the way a connection does, into a struct
// from the wire free list.
func readFrame(t *testing.T, m wire.Message) wire.Message {
	t.Helper()
	got, err := wire.NewReader(bytes.NewReader(wire.Append(nil, m))).Read()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBufferedSubmissionOutlivesItsStep: a submission that arrives
// before any worker is held in pendingAdmit past its step, so the step
// must not release it. Other submissions decoded and released meanwhile
// would otherwise land in its struct; the job admitted when a worker
// registers must have the phases, deps and replicas that were sent.
func TestBufferedSubmissionOutlivesItsStep(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{MeanTaskSeconds: 3, Timers: &stillTimers{}})
	if err != nil {
		t.Fatal(err)
	}
	sent := dagSubmit(9, 4, 12)
	s.step(envelope{from: &peer{conn: &discardConn{}}, msg: readFrame(t, sent)})
	if len(s.pendingAdmit) != 1 {
		t.Fatalf("%d submissions buffered, want 1", len(s.pendingAdmit))
	}
	for i := 0; i < 8; i++ {
		wire.Release(readFrame(t, dagSubmit(100+uint64(i), 1+i%3, 5)))
	}
	s.step(envelope{from: &peer{conn: &discardConn{}}, msg: readFrame(t, &wire.Hello{Role: wire.RoleWorker, ID: 7, Slots: 4})})
	lj := s.jobs[sent.JobID]
	if lj == nil {
		t.Fatalf("job %d was not admitted; jobs %v", sent.JobID, s.jobs)
	}
	got, want := lj.job, perPhaseJob(sent, 3, 0)
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("admitted %d phases, sent %d", len(got.Phases), len(want.Phases))
	}
	for pi, p := range got.Phases {
		w := want.Phases[pi]
		if !reflect.DeepEqual(p.Deps, w.Deps) || len(p.Tasks) != len(w.Tasks) || p.MeanTaskDuration != w.MeanTaskDuration {
			t.Fatalf("phase %d: deps %v, %d tasks, mean %v; sent deps %v, %d tasks, mean %v",
				pi, p.Deps, len(p.Tasks), p.MeanTaskDuration, w.Deps, len(w.Tasks), w.MeanTaskDuration)
		}
		for ti, tk := range p.Tasks {
			if !reflect.DeepEqual(tk.Replicas, w.Tasks[ti].Replicas) {
				t.Fatalf("%s: replicas %v, sent %v", tk.ID(), tk.Replicas, w.Tasks[ti].Replicas)
			}
		}
	}
}

// stepInbox runs the oldest entry a timer posted to a node's inbox.
func stepInbox(t *testing.T, l *loop, step func(envelope)) {
	t.Helper()
	env, ok := l.pop()
	if !ok {
		t.Fatal("no event waiting in the inbox")
	}
	step(env)
}

// TestUnlockWaitsAreRecycled: a transfer-gated wakeup waits on a
// recycled record, so once one is spare a wait allocates nothing, and
// two waits in flight at once each deliver their own wakeup.
func TestUnlockWaitsAreRecycled(t *testing.T) {
	timers := &stillTimers{}
	s, err := NewScheduler(SchedulerConfig{Timers: timers})
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	s.scheduleUnlock(1, func() { fired = append(fired, "a") })
	a := timers.last
	s.scheduleUnlock(2, func() { fired = append(fired, "b") })
	b := timers.last
	b.fire()
	stepInbox(t, s.loop, s.step)
	a.fire()
	stepInbox(t, s.loop, s.step)
	if !reflect.DeepEqual(fired, []string{"b", "a"}) || len(s.spareUnlocks) != 2 {
		t.Fatalf("wakeups ran as %v with %d records spare, want [b a] and 2", fired, len(s.spareUnlocks))
	}
	n := 0
	wake := func() { n++ }
	cycle := func() {
		u := s.spareUnlocks[len(s.spareUnlocks)-1] // the record the wait takes
		s.scheduleUnlock(1, wake)
		u.timer.t.(*stillTimer).fire()
		stepInbox(t, s.loop, s.step)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a transfer-gated wakeup allocates %.2f/op with a record spare, want 0", avg)
	}
	if n != 202 || len(s.spareUnlocks) != 2 {
		t.Fatalf("%d wakeups delivered, %d records spare; want 202 and the first two", n, len(s.spareUnlocks))
	}
}

// BenchmarkAdmit admits a three-phase, 64-tasks-per-phase job to a
// one-worker scheduler, probes and all, and finishes it, which reports
// it to its client.
func BenchmarkAdmit(b *testing.B) {
	s, err := NewScheduler(SchedulerConfig{Timers: &stillTimers{}})
	if err != nil {
		b.Fatal(err)
	}
	s.handle(envelope{from: &peer{conn: &discardConn{}}, msg: &wire.Hello{Role: wire.RoleWorker, ID: 7, Slots: 4}})
	client := &peer{conn: &discardConn{}}
	m := dagSubmit(0, 3, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.JobID = uint64(i)
		s.admit(client, m)
		s.finishJob(s.jobs[m.JobID].job)
	}
}
