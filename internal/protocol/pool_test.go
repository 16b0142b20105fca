package protocol

import (
	"math/rand"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// newPoolWorker builds a Hopper-mode worker core over a shared clock,
// stats and pool. place, when non-nil, is the worker's Place.
func newPoolWorker(id cluster.MachineID, clk *testClock, stats *Stats, pool *Pool, free func() int, place func(SchedID, Reply) bool) *Worker {
	if place == nil {
		place = func(SchedID, Reply) bool { return true }
	}
	return NewWorker(id, Config{Mode: ModeHopper, NumSchedulers: 3}.WithDefaults(), WorkerEnv{
		Now:       clk.Now,
		Rand:      rand.New(rand.NewSource(int64(id) + 1)),
		FreeSlots: free,
		Place:     place,
		Stats:     stats,
		Pool:      pool,
	})
}

// liveEntries counts a worker's non-tombstoned entries.
func (w *Worker) liveEntries() int { return len(w.entries) - w.deadEntries }

// TestQueueNeverMoreDeadThanLive purges a queue's entries in random
// orders and checks, after every purge, that the queue holds no more
// tombstones than live entries and that the live entries keep their
// arrival order.
func TestQueueNeverMoreDeadThanLive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var clk testClock
	var stats Stats
	w := newPoolWorker(0, &clk, &stats, nil, func() int { return 0 }, nil)
	for trial := 0; trial < 50; trial++ {
		for j := 0; j < 1+rng.Intn(40); j++ {
			w.AddReservation(SchedID(rng.Intn(3)), cluster.JobID(100*trial+j), 1, 1, cluster.Resources{})
		}
		for w.liveEntries() > 0 {
			var live []*Entry
			for _, e := range w.entries {
				if !e.dead {
					live = append(live, e)
				}
			}
			victim := live[rng.Intn(len(live))]
			w.purge(victim)
			if w.deadEntries > w.liveEntries() {
				t.Fatalf("trial %d: %d tombstones over %d live entries after a purge", trial, w.deadEntries, w.liveEntries())
			}
			k := 0
			for _, e := range w.entries {
				if e.dead {
					continue
				}
				if live[k] == victim {
					k++
				}
				if e != live[k] {
					t.Fatalf("trial %d: live order changed by a purge", trial)
				}
				k++
			}
		}
		if len(w.entries) != 0 {
			t.Fatalf("trial %d: an emptied queue kept %d tombstones", trial, len(w.entries))
		}
	}
}

// TestJobListNeverMoreDeadThanLive is the same rule on a scheduler's
// job list: finishing jobs in random orders leaves no more tombstones
// than live jobs, and the survivors keep admission order and their pos.
func TestJobListNeverMoreDeadThanLive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := newHarness(t, ModeHopper, 1)
	for trial := 0; trial < 20; trial++ {
		var live []*cluster.Job
		for i := 0; i < 1+rng.Intn(40); i++ {
			j := mkJob(cluster.JobID(100*trial+i), 2, 1.0)
			h.sc.Admit(j)
			live = append(live, j)
		}
		for len(live) > 0 {
			k := rng.Intn(len(live))
			h.sc.JobDone(live[k])
			live = append(live[:k], live[k+1:]...)
			if h.sc.deadJobs > h.sc.liveJobs {
				t.Fatalf("trial %d: %d tombstones over %d live jobs after a JobDone", trial, h.sc.deadJobs, h.sc.liveJobs)
			}
			n := 0
			for pos, d := range h.sc.jobList {
				if d == nil {
					continue
				}
				if d.pos != pos || d != h.sc.jobs[live[n].ID] {
					t.Fatalf("trial %d: job list slot %d holds the wrong job or a stale pos", trial, pos)
				}
				n++
			}
			if n != len(live) || h.sc.liveJobs != n {
				t.Fatalf("trial %d: job list holds %d live jobs (liveJobs %d), want %d", trial, n, h.sc.liveJobs, len(live))
			}
		}
		if len(h.sc.jobList) != 0 {
			t.Fatalf("trial %d: an emptied job list kept %d tombstones", trial, len(h.sc.jobList))
		}
	}
}

// TestSharedPoolReissueIsFresh: an entry worker A purges while its offer
// is out goes through the pool to worker B. A's ref and tried mark must
// not resolve against B's reservation — A's reply may not spend it — and
// the round A then ends, once B reissues it, must emit B's offer and
// place on B.
func TestSharedPoolReissueIsFresh(t *testing.T) {
	var clk testClock
	var stats Stats
	pool := &Pool{}
	var placedOn []string
	aFree, bFree := 1, 0
	a := newPoolWorker(0, &clk, &stats, pool, func() int { return aFree },
		func(SchedID, Reply) bool { placedOn = append(placedOn, "A"); return true })
	b := newPoolWorker(1, &clk, &stats, pool, func() int { return bFree },
		func(SchedID, Reply) bool { placedOn = append(placedOn, "B"); return true })

	offA := onlyOffer(t, a.AddReservation(0, 1, 5, 4, cluster.Resources{}))
	r := waitingOn(t, a, offA.Seq)
	e := a.find(0, 1)
	ref := r.out.entry
	if !r.wasTried(e) || ref.live() != e {
		t.Fatal("A's round holds no ref or tried mark for the entry it offered")
	}
	// The job finishes under A's offer (as a concurrent round's JobDone
	// would purge it): the queue's only entry goes to the pool at once.
	a.purge(e)
	if len(a.entries) != 0 || len(pool.entries) != 1 {
		t.Fatalf("purging A's only entry left %d queued and %d pooled, want 0 and 1", len(a.entries), len(pool.entries))
	}

	b.AddReservation(1, 2, 9, 3, cluster.Resources{})
	if b.find(1, 2) != e {
		t.Fatal("B did not reissue the entry A purged: the workers do not share the pool")
	}
	if ref.live() != nil || r.wasTried(e) {
		t.Fatal("A's ref or tried mark resolves against B's reservation")
	}
	reply(t, a, offA.Seq, Reply{Job: 1, From: 0, HasTask: true})
	if e.dead || e.count != 1 || e.vs != 9 || e.Sched != 1 || e.Job != 2 {
		t.Fatalf("A's reply touched B's reservation: %+v", e)
	}
	if len(placedOn) != 1 || placedOn[0] != "A" || len(pool.rounds) != 1 {
		t.Fatalf("A's reply placed on %v and pooled %d rounds, want [A] and 1", placedOn, len(pool.rounds))
	}

	bFree = 1
	offB := onlyOffer(t, b.Kick())
	if len(pool.rounds) != 0 || waitingOn(t, b, offB.Seq) != r || offB.Sched != 1 || offB.Job != 2 {
		t.Fatalf("B's round is not A's recycled one offering B's entry: %+v", offB)
	}
	if a.OffersOut() != 0 || b.OffersOut() != 1 {
		t.Fatalf("offers out: A %d, B %d; want 0 and 1", a.OffersOut(), b.OffersOut())
	}
	reply(t, b, offB.Seq, Reply{Job: 2, From: 1, HasTask: true})
	if len(placedOn) != 2 || placedOn[1] != "B" || b.liveEntries() != 0 {
		t.Fatalf("B's reply placed on %v leaving %d entries, want [A B] and 0", placedOn, b.liveEntries())
	}
}

// BenchmarkWorkerQueue runs reservation → offer → reply → purge cycles
// on 1,000 workers sharing one pool while jobs come and go: each op
// admits reservations for a job on four random workers and answers
// every offer that follows — a task, a refusal, no demand, or, once the
// job has left, job done — until the workers go quiet.
func BenchmarkWorkerQueue(b *testing.B) {
	const (
		workers = 1000
		window  = 64 // jobs live at once
		probes  = 4
	)
	var clk testClock
	var stats Stats
	pool := &Pool{}
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = newPoolWorker(cluster.MachineID(i), &clk, &stats, pool, func() int { return 1 }, nil)
	}
	type out struct {
		w   *Worker
		seq uint64
		rep Reply
	}
	rng := rand.New(rand.NewSource(1))
	var queue []out
	newest := cluster.JobID(window)
	enqueue := func(w *Worker, acts []WAction) {
		for _, a := range acts {
			if a.Kind != WSendOffer {
				continue
			}
			rep := Reply{Job: a.Job, From: a.Sched}
			switch k := rng.Intn(10); {
			case a.Job <= newest-window:
				rep.JobDone = true
			case k < 6:
				rep.HasTask = true
			case k < 8:
				rep.Refused = true
			default:
				rep.NoDemand = true
			}
			queue = append(queue, out{w, a.Seq, rep})
		}
	}
	op := func() {
		clk.now += 0.01
		if rng.Intn(8) == 0 {
			newest++
		}
		job := newest - cluster.JobID(rng.Intn(window))
		sched := SchedID(job % 3)
		for p := 0; p < probes; p++ {
			w := ws[rng.Intn(workers)]
			enqueue(w, w.AddReservation(sched, job, float64(job%17+1), 4, cluster.Resources{}))
		}
		for k := 0; k < len(queue); k++ {
			o := queue[k]
			acts, _ := o.w.OnReply(o.seq, o.rep)
			enqueue(o.w, acts)
		}
		queue = queue[:0]
	}
	// Warm the pool and every queue first, so that a short -benchtime
	// times the steady state and not the first cycles' allocations.
	for range 50000 {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
}
