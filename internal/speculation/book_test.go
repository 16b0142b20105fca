package speculation

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// bookJob builds a book and one single-phase job of n tasks (mean task
// duration 1) registered in it.
func bookJob(n int) (*Book, *JobBook) {
	ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	b := NewBook(Config{Policy: LATE{}}, 1.5, 30)
	jb := b.NewJob(cluster.NewJob(1, "", 0, []*cluster.Phase{ph}))
	return &b, &jb
}

// handOut starts a copy of the job's i-th task at time start lasting dur
// and records it in the book: an original the first time, speculative
// after.
func handOut(b *Book, jb *JobBook, i int, start, dur float64) (*cluster.Task, *cluster.Copy) {
	t := jb.Job.Phases[0].Tasks[i]
	spec := len(t.Copies) > 0
	c := t.StartCopy(start, cluster.MachineID(i), spec, false, dur)
	b.HandedOut(jb, t, spec)
	return t, c
}

func wantCounts(t *testing.T, jb *JobBook, running, occupied int) {
	t.Helper()
	if jb.Running != running || jb.Occupied != occupied {
		t.Fatalf("Running=%d Occupied=%d, want %d and %d", jb.Running, jb.Occupied, running, occupied)
	}
}

func TestBookCopyLostOfLastCopyRequeues(t *testing.T) {
	b, jb := bookJob(2)
	task, c := handOut(b, jb, 0, 0, 5)
	wantCounts(t, jb, 1, 1)
	task.DropCopy(c)
	if !b.CopyLost(jb, task) {
		t.Fatal("losing the task's only copy did not ask for a requeue")
	}
	wantCounts(t, jb, 0, 0)
	if task.VictimPos != 0 || task.VictimCopy != nil {
		t.Fatalf("requeued task still indexed: pos %d copy %v", task.VictimPos, task.VictimCopy)
	}
}

func TestBookCopyLostOfOtherCopyKeepsTask(t *testing.T) {
	b, jb := bookJob(2)
	task, orig := handOut(b, jb, 0, 0, 5)
	handOut(b, jb, 0, 1, 5)
	wantCounts(t, jb, 1, 2)
	task.DropCopy(orig)
	if b.CopyLost(jb, task) {
		t.Fatal("losing one of two copies asked for a requeue")
	}
	wantCounts(t, jb, 1, 1)
	if task.VictimCopy != task.Copies[0] {
		t.Fatal("the surviving copy was not re-keyed as the representative")
	}
}

// TestBookReconciledCopyCountedOnce drives the book the way a restarted
// core reconciles a copy a worker reports still running
// (protocol.Sched.ReconcileRunning): one hand-out, then the placement,
// which the adapter may report again. The copy holds one slot, the task
// one running-set place and one index entry, and its completion returns
// all of them.
func TestBookReconciledCopyCountedOnce(t *testing.T) {
	b, jb := bookJob(2)
	task, c := handOut(b, jb, 0, 0, 5)
	jb.Mon.CopyPlaced(task)
	jb.Mon.CopyPlaced(task)
	wantCounts(t, jb, 1, 1)
	if got := b.walk(1, jb, false); len(got) != 1 || got[0] != task {
		t.Fatalf("victims %v, want the reconciled task once", got)
	}
	task.State = cluster.TaskDone
	b.TaskDone(jb, task, c)
	wantCounts(t, jb, 0, 0)
	if left := b.JobDone(jb, jb.Job); left != 0 {
		t.Fatalf("job finished holding %d slots", left)
	}
}

func TestBookTaskDoneWithdrawsWant(t *testing.T) {
	b, jb := bookJob(3)
	handOut(b, jb, 0, 0, 5)
	task, c := handOut(b, jb, 1, 0, 5)
	other := jb.Job.Phases[0].Tasks[0]
	jb.AddWant(other)
	if !jb.AddWant(task) || jb.AddWant(task) {
		t.Fatal("AddWant must queue a task once")
	}
	task.State = cluster.TaskDone
	b.TaskDone(jb, task, c)
	if task.SpecWanted {
		t.Fatal("completed task is still flagged wanted")
	}
	if jb.Wants() != 1 || b.TakeWant(jb, nil) != other {
		t.Fatal("completion did not remove exactly its own want")
	}
}

// TestBookTakeWantDropsStale pins the stale-want test both planes share:
// a want whose task reached the copy cap is dropped, and a live want the
// caller's filter rejects stays queued.
func TestBookTakeWantDropsStale(t *testing.T) {
	b, jb := bookJob(2)
	capped, _ := handOut(b, jb, 0, 0, 5)
	handOut(b, jb, 0, 1, 5) // two copies: at the default cap
	live, _ := handOut(b, jb, 1, 0, 5)
	jb.AddWant(capped)
	jb.AddWant(live)
	if got := b.OldestWant(jb); got != live {
		t.Fatalf("OldestWant = %v, want the task below the cap", got)
	}
	if got := b.TakeWant(jb, func(*cluster.Task) bool { return false }); got != nil {
		t.Fatalf("TakeWant gave out %v past a filter that rejects everything", got.ID())
	}
	if capped.SpecWanted || !live.SpecWanted || jb.Wants() != 1 {
		t.Fatal("TakeWant must drop the stale want and keep the rejected one")
	}
	if got := b.TakeWant(jb, nil); got != live || live.SpecWanted {
		t.Fatal("TakeWant(nil) must give out the live want and clear its flag")
	}
}

func TestBookDuplicatePhaseRunnable(t *testing.T) {
	b, jb := bookJob(1)
	p := jb.Job.Phases[0]
	if !b.PhaseRunnable(jb, p) {
		t.Fatal("first wakeup reported as a duplicate")
	}
	if b.PhaseRunnable(jb, p) {
		t.Fatal("second wakeup reported as the first")
	}
}

// TestBookScanVictimsOnlyWhenAsked: under LATE and no history (t_new is
// the phase mean, 1; the slow threshold twice that), at time 0.5 a
// 50-second copy is a straggler the policy flags, a 1.9-second copy is a
// ripe victim it does not (projected 1.9 < 2), and a 1-second copy is
// neither. Scan without victims queues the first only; with victims it
// adds the second.
func TestBookScanVictimsOnlyWhenAsked(t *testing.T) {
	b, jb := bookJob(3)
	straggler, _ := handOut(b, jb, 0, 0, 50)
	victim, _ := handOut(b, jb, 1, 0, 1.9)
	handOut(b, jb, 2, 0, 1)
	got := b.Scan(0.5, jb, false, nil)
	if len(got) != 1 || got[0] != straggler {
		t.Fatalf("Scan without victims = %v, want the flagged straggler only", got)
	}
	got = b.Scan(0.5, jb, true, got)
	if len(got) != 1 || got[0] != victim {
		t.Fatalf("Scan with victims = %v, want the unflagged victim", got)
	}
	if jb.Wants() != 2 {
		t.Fatalf("%d wants queued, want 2", jb.Wants())
	}
}

// TestBookBestVictimRacesOnlyRipeStragglers: Book.BestVictim answers from
// the job's own victim index. With no history t_new is the phase mean, 1,
// and a copy is observable after a quarter of it. At time 1 a copy
// started at 0 is a ripe straggler; one started at 0.9 has more work left
// but is too young to observe, so it is not raced until it ripens.
func TestBookBestVictimRacesOnlyRipeStragglers(t *testing.T) {
	b, jb := bookJob(2)
	if v := b.BestVictim(1, jb); v != nil {
		t.Fatalf("BestVictim = %s before anything was handed out", tid(v))
	}
	ripe, _ := handOut(b, jb, 0, 0, 50)
	young, _ := handOut(b, jb, 1, 0.9, 60)
	if v := b.BestVictim(0.1, jb); v != nil {
		t.Fatalf("BestVictim = %s before any copy was observable", tid(v))
	}
	if v := b.BestVictim(1, jb); v != ripe {
		t.Fatalf("BestVictim = %s, want the ripe straggler, not the young copy", tid(v))
	}
	if v := b.BestVictim(1.2, jb); v != young {
		t.Fatalf("BestVictim = %s once the younger copy ripened, want it (more work left)", tid(v))
	}
}
