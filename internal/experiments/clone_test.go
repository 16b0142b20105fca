package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/workload"
)

// jobsDigest is a SHA-256 over everything CloneJobs copies (IDs, names,
// arrivals, deps, durations, transfer work, demands, replicas) and the
// run state a simulation writes into tasks (state and copy count), so a
// run that reaches a source task through its clone moves it.
func jobsDigest(jobs []*cluster.Job) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	res := func(r cluster.Resources) { f(r.CPU); f(r.Mem) }
	u(uint64(len(jobs)))
	for _, j := range jobs {
		u(uint64(j.ID))
		u(uint64(len(j.Name)))
		h.Write([]byte(j.Name))
		f(j.Arrival)
		u(uint64(len(j.Phases)))
		for _, p := range j.Phases {
			u(uint64(len(p.Deps)))
			for _, d := range p.Deps {
				u(uint64(d))
			}
			f(p.MeanTaskDuration)
			f(p.TransferWork)
			res(p.Demand)
			u(uint64(len(p.Tasks)))
			for _, t := range p.Tasks {
				res(t.Demand)
				u(uint64(t.State))
				u(uint64(len(t.Copies)))
				u(uint64(len(t.Replicas)))
				for _, r := range t.Replicas {
					u(uint64(r))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCloneJobsIsDeepAndSeparate checks the clone against its source:
// the same digest, and no write through the clone (a whole run, or an
// overwrite or append on a task's replica list) reaches the source or a
// neighbouring task, however the clone packs its tasks and replica
// lists.
func TestCloneJobsIsDeepAndSeparate(t *testing.T) {
	spec := smokeSpec()
	tr := smokeTrace(t, spec)
	src := jobsDigest(tr.Jobs)

	// A run starts copies on every cloned task.
	run := CloneJobs(tr.Jobs)
	res := RunTrace(centralHopper(scheduler.Config{}), spec, run, 7)
	if len(res.Run.Jobs) != len(tr.Jobs) || res.Exec.CopiesStarted == 0 {
		t.Fatalf("run finished %d of %d jobs, %d copies", len(res.Run.Jobs), len(tr.Jobs), res.Exec.CopiesStarted)
	}
	if got := jobsDigest(tr.Jobs); got != src {
		t.Fatal("a run on the clone changed the source")
	}

	tr.Jobs[0].Phases[0].Tasks[1].Demand = cluster.Resources{CPU: 2, Mem: 3}
	src = jobsDigest(tr.Jobs)
	clone := CloneJobs(tr.Jobs)
	if got := jobsDigest(clone); got != src {
		t.Fatalf("clone digest %s, source %s", got, src)
	}

	// Overwrite one cloned task's replicas and append to another's.
	var ph *cluster.Phase
	for _, j := range clone {
		if p := j.Phases[0]; len(p.Tasks) >= 3 && len(p.Tasks[0].Replicas) > 0 {
			ph = p
			break
		}
	}
	if ph == nil {
		t.Fatal("no input phase with three replicated tasks")
	}
	want1 := append([]cluster.MachineID(nil), ph.Tasks[1].Replicas...)
	want2 := append([]cluster.MachineID(nil), ph.Tasks[2].Replicas...)
	ph.Tasks[0].Replicas[0] = 999
	ph.Tasks[0].Replicas = append(ph.Tasks[0].Replicas, 998)
	ph.Tasks[1].Replicas = append(ph.Tasks[1].Replicas, 997)
	if got := ph.Tasks[1].Replicas[:len(want1)]; !slices.Equal(got, want1) {
		t.Fatalf("task 1 replicas %v after writes to task 0, want %v", got, want1)
	}
	if got := ph.Tasks[2].Replicas; !slices.Equal(got, want2) {
		t.Fatalf("task 2 replicas %v after an append to task 1, want %v", got, want2)
	}
	if got := jobsDigest(tr.Jobs); got != src {
		t.Fatal("writes to cloned replica lists changed the source")
	}
}

// BenchmarkCloneJobs copies sim-central's trace: 700 jobs, 45,468 tasks.
func BenchmarkCloneJobs(b *testing.B) {
	tr := workload.Generate(workload.Config{
		Profile: workload.Facebook(), NumJobs: 700, TargetUtilization: 0.9,
		TotalSlots: 16000, NumMachines: 4000, Seed: 7001,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CloneJobs(tr.Jobs)
	}
}
