package speculation

import (
	"math"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// bookJob builds a book and one single-phase job of n tasks (mean task
// duration 1) registered in it.
func bookJob(n int) (*Book, *JobBook) { return bookJobCapped(n, 0) }

// bookJobCapped is bookJob under a copy cap of k (0: the default).
func bookJobCapped(n, k int) (*Book, *JobBook) {
	ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	b := NewBook(Config{Policy: LATE{}, MaxCopies: k}, 30)
	jb := b.NewJob(cluster.NewJob(1, "", 0, []*cluster.Phase{ph}))
	return &b, &jb
}

// handOut starts a copy of the job's i-th task at time start lasting dur
// and records it in the book: an original the first time, speculative
// after.
func handOut(b *Book, jb *JobBook, i int, start, dur float64) (*cluster.Task, *cluster.Copy) {
	t := jb.Job.Phases[0].Tasks[i]
	spec := len(t.Copies) > 0
	c := t.StartCopy(start, cluster.MachineID(i), spec, dur)
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

// TestBookScanReleasesQueuedWants: under LATE and no history (t_new 1,
// slow threshold 2) every copy of 10 s or more is a straggler at time 1,
// and a 1-second copy is no victim. The Scan that queues the stragglers
// also releases their entries (its victims walk meets them queued), so
// the ready heaps hold no current entry for a queued task: the next Scan
// visits none — the quiet cache answers it, and without the cache the
// walks stop at dropped roots — while Book.BestVictim still finds the
// worst straggler, in the want queue.
func TestBookScanReleasesQueuedWants(t *testing.T) {
	const stragglers, short = 40, 8
	b, jb := bookJob(stragglers + short)
	for i := 0; i < stragglers; i++ {
		handOut(b, jb, i, 0, float64(10+i))
	}
	for i := stragglers; i < stragglers+short; i++ {
		handOut(b, jb, i, 0, 1)
	}
	const now = 1.0
	if got := b.Scan(now, jb, true, nil); len(got) != stragglers {
		t.Fatalf("first Scan queued %d wants, want all %d stragglers", len(got), stragglers)
	}
	for _, bk := range jb.Mon.victims.buckets {
		for _, e := range bk.ready {
			if e.current() && e.t.SpecWanted {
				t.Fatalf("queued task %s still has a current ready entry", tid(e.t))
			}
		}
	}
	if !jb.Mon.victims.quiet(now, jb.Mon.version) {
		t.Fatal("a job whose victims are all queued is not quiet: the next Scan would walk its heaps")
	}
	jb.Mon.victims.quietUntil = math.Inf(-1)
	if got := b.Scan(now, jb, true, nil); len(got) != 0 {
		t.Fatalf("second Scan queued %v", tids(got))
	}
	for _, bk := range jb.Mon.victims.buckets {
		if len(bk.ready) > 0 && bk.ready[0].t != nil && bk.remaining(bk.ready[0], now) > 1 {
			t.Fatalf("ready root %s is live above the cut: a walk would visit it", tid(bk.ready[0].t))
		}
	}
	if v, worst := b.BestVictim(now, jb), jb.Job.Phases[0].Tasks[stragglers-1]; v != worst {
		t.Fatalf("BestVictim = %s, want the worst straggler %s from the want queue", tid(v), tid(worst))
	}
}

// TestBookTakenWantComesBack: under a cap of 3 a straggler stays a victim
// after its first speculative copy. Its want's entry is released by the
// walk, and the copy is placed as the centralized chassis places one, with
// no CopyPlaced: TakeWant must index the task again, or no walk would
// find it.
func TestBookTakenWantComesBack(t *testing.T) {
	b, jb := bookJobCapped(1, 3)
	straggler, _ := handOut(b, jb, 0, 0, 50)
	if got := b.Scan(1, jb, true, nil); len(got) != 1 || got[0] != straggler {
		t.Fatalf("Scan = %v, want the straggler", tids(got))
	}
	if straggler.VictimCopy != nil {
		t.Fatal("the queued straggler's entry was not released")
	}
	if got := b.TakeWant(jb, nil); got != straggler {
		t.Fatalf("TakeWant = %s, want the straggler", tid(got))
	}
	handOut(b, jb, 0, 1, 50)
	if got := b.walk(1.1, jb, false); len(got) != 1 || got[0] != straggler {
		t.Fatalf("walk after the take = %v, want the straggler back (2 copies under a cap of 3)", tids(got))
	}
}

// TestBookBestVictimCountsQueuedWants: Book.BestVictim holds the queued
// wants whose entries a walk released against the index's answer, under
// the scan's rule — the largest remaining time, then the lowest hand-out
// rank.
func TestBookBestVictimCountsQueuedWants(t *testing.T) {
	// queue queues the i-th task's want and lets a walk release its entry.
	queue := func(b *Book, jb *JobBook, i int) {
		task := jb.Job.Phases[0].Tasks[i]
		jb.AddWant(task)
		b.walk(1, jb, false)
		if task.VictimCopy != nil {
			t.Fatalf("the walk did not release %s's entry", tid(task))
		}
	}
	b, jb := bookJob(2)
	handOut(b, jb, 0, 0, 40)
	big, _ := handOut(b, jb, 1, 0, 50)
	queue(b, jb, 1)
	if v := b.BestVictim(1, jb); v != big {
		t.Fatalf("BestVictim = %s, want the queued straggler over the smaller indexed one", tid(v))
	}

	b, jb = bookJob(2)
	first, _ := handOut(b, jb, 0, 0, 50)
	handOut(b, jb, 1, 0, 50)
	queue(b, jb, 1)
	if v := b.BestVictim(1, jb); v != first {
		t.Fatalf("BestVictim = %s, want the indexed task: a queued want loses a tie to a lower hand-out rank", tid(v))
	}

	b, jb = bookJob(2)
	first, _ = handOut(b, jb, 0, 0, 50)
	handOut(b, jb, 1, 0, 50)
	queue(b, jb, 0)
	if v := b.BestVictim(1, jb); v != first {
		t.Fatalf("BestVictim = %s, want the queued task: it wins a tie with the lower hand-out rank", tid(v))
	}
}

// BenchmarkBookScan times Book.Scan as the centralized chassis calls it,
// once per task completion, on a job that keeps a few hundred ripe
// stragglers running, most of them already in its want queue. Under
// Mantri with t_new 1 (the phase mean, then the median of the unit-length
// completions), at time 10 the queued stragglers have 100 s or more left,
// and the rest 1.5 s: victims the policy does not flag (it asks for more
// than 2·t_new), which every walk visits. Each completion moves t_new's
// version, so no Scan is answered by the quiet cache. One op is a short
// task handed out, completed and followed by one Scan.
func BenchmarkBookScan(b *testing.B) {
	const stragglers, queued, completions, now = 300, 250, 1000, 10.0
	var book Book
	var jb JobBook
	next := stragglers + completions
	setup := func() {
		ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, stragglers+completions)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &cluster.Task{}
		}
		book = NewBook(Config{Policy: Mantri{}}, 30)
		jb = book.NewJob(cluster.NewJob(1, "", 0, []*cluster.Phase{ph}))
		for i := 0; i < stragglers; i++ {
			dur := 11.5
			if i < queued {
				dur = 110 + float64(i)
			}
			t, _ := handOut(&book, &jb, i, 0, dur)
			if i < queued {
				jb.AddWant(t)
			}
		}
		next = stragglers
	}
	var dst []*cluster.Task
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == stragglers+completions {
			b.StopTimer()
			setup()
			b.StartTimer()
		}
		t, c := handOut(&book, &jb, next, now-1, 1)
		next++
		t.State, c.Won = cluster.TaskDone, true
		book.TaskDone(&jb, t, c)
		if dst = book.Scan(now, &jb, false, dst); len(dst) != 0 {
			b.Fatalf("Scan queued %d wants: the job's stragglers are queued already", len(dst))
		}
	}
}
