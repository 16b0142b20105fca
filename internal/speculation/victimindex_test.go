package speculation

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// simConfig is one regime the differential drives the index through.
type simConfig struct {
	pol    Policy
	k      int       // copy cap (Config.MaxCopies)
	speeds []float64 // each placed copy runs at one of these, drawn
	// drop, when set, enables copy loss: which copies a loss takes
	// (dropOriginal, dropSpeculative, dropAll).
	drop dropKind
}

type dropKind int

const (
	noDrops dropKind = iota
	// dropOriginal loses a task's oldest live copy — its representative
	// in the index; a speculative copy, if any, survives and is re-keyed.
	dropOriginal
	// dropSpeculative loses one of a task's younger copies: the task is
	// back under the cap with its representative unchanged.
	dropSpeculative
	// dropAll loses every copy of a task, or a hand-out before its copy
	// landed: the task is requeued, may catch a late speculative copy
	// while it waits, and is handed out again.
	dropAll
)

// victimSim drives one job through randomized hand-out / placement /
// want-queueing / speculation / loss / completion traffic, mirroring what
// a scheduler does to its job's book, twice over: jb is the record under
// test, driven and asked through its book — wants queued with AddWant,
// taken with TakeWant and withdrawn by TaskDone, as the schedulers do —
// and ref an oracle asked only for its scans. Both hear the same
// completions, so their histories agree and every indexed answer can be
// held against the scan's at every step.
type victimSim struct {
	cfg     simConfig
	book    *Book
	jb      JobBook
	ref     *Monitor
	rng     *rand.Rand
	job     *cluster.Job
	running []*cluster.Task // nil-tombstoned, in hand-out order
	queue   []*cluster.Task // to hand out: never-handed-out, then requeued
	done    int

	// The loss counters: a representative lost with a copy surviving
	// (re-keyed), a younger copy lost (the task back under the cap, its
	// representative unchanged), a requeue, and a late copy landing on a
	// requeued task.
	rekeys, reopened, requeues, lateCopies int
	// retaken counts wants taken for a task a walk had dropped from the
	// index, which TakeWant must index again.
	retaken int
}

func newVictimSim(cfg simConfig, book *Book, rng *rand.Rand, id cluster.JobID) *victimSim {
	var phases []*cluster.Phase
	for p := 0; p < 2; p++ {
		ph := &cluster.Phase{MeanTaskDuration: []float64{1.0, 2.5}[p], Tasks: make([]*cluster.Task, 20)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &cluster.Task{}
		}
		phases = append(phases, ph)
	}
	s := &victimSim{cfg: cfg, book: book, rng: rng, job: cluster.NewJob(id, "", 0, phases)}
	s.jb = book.NewJob(s.job)
	s.ref = NewMonitor(*book.cfg, nil)
	// Interleave the two phases so both buckets are live at once.
	for i := 0; i < 20; i++ {
		s.queue = append(s.queue, phases[0].Tasks[i], phases[1].Tasks[i])
	}
	return s
}

func (s *victimSim) total() int { return len(s.job.Phases[0].Tasks) + len(s.job.Phases[1].Tasks) }

// pick returns a random task of the running set that satisfies ok, or nil.
func (s *victimSim) pick(ok func(*cluster.Task) bool) *cluster.Task {
	var ts []*cluster.Task
	for _, t := range s.running {
		if t != nil && ok(t) {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return nil
	}
	return ts[s.rng.Intn(len(ts))]
}

// copyOf returns a copy of t starting now at a drawn speed. Quantized
// durations and speeds manufacture remaining-time ties, exercising the
// hand-out-order tie-break, and land completions, ripeness and the t_new
// cut exactly on clock steps.
func (s *victimSim) copyOf(t *cluster.Task, now float64, spec bool) *cluster.Copy {
	return &cluster.Copy{
		Task: t, Start: now, Duration: float64(s.rng.Intn(16)+1) * 0.5,
		Speculative: spec, Speed: s.cfg.speeds[s.rng.Intn(len(s.cfg.speeds))],
	}
}

// place appends a copy of t and reports its landing as the decentralized
// core does (CopyPlaced).
func (s *victimSim) place(t *cluster.Task, now float64, spec bool) {
	t.Copies = append(t.Copies, s.copyOf(t, now, spec))
	s.jb.Mon.CopyPlaced(t)
}

// leave takes t out of the running set (completion or requeue).
func (s *victimSim) leave(t *cluster.Task) {
	for j, rt := range s.running {
		if rt == t {
			s.running[j] = nil
		}
	}
}

// step performs one random scheduler action at time now and reports
// whether the job still has work.
func (s *victimSim) step(now float64) bool {
	switch op := s.rng.Intn(7); {
	case op == 0 && len(s.queue) > 0:
		// Hand out the next task: it joins the running set.
		t := s.queue[0]
		s.queue = s.queue[1:]
		if t.State == cluster.TaskUnscheduled {
			t.State = cluster.TaskRunning
		}
		s.running = append(s.running, t)
		s.book.HandedOut(&s.jb, t, false)
	case op == 1:
		// A handed-out task's original lands.
		if t := s.pick(func(t *cluster.Task) bool { return len(t.Copies) == 0 }); t != nil {
			s.place(t, now, false)
		}
	case op == 2:
		// Race a victim the scan would offer, taking its want off the
		// queue if it has one, as a scheduler's take does. Only victims:
		// a scheduler races nothing else, and the index relies on it. The
		// copy is placed as the centralized chassis places one, without
		// CopyPlaced: the task is indexed already, or TakeWant indexed it
		// again.
		if vs := s.ref.VictimsInto(now, s.running, s.cfg.k, nil); len(vs) > 0 {
			t := vs[s.rng.Intn(len(vs))]
			if t.SpecWanted {
				if t.VictimCopy == nil {
					s.retaken++
				}
				if s.book.TakeWant(&s.jb, func(q *cluster.Task) bool { return q == t }) != t {
					panic("TakeWant did not hand out the raced task's want")
				}
			}
			t.Copies = append(t.Copies, s.copyOf(t, now, true))
			s.book.HandedOut(&s.jb, t, true)
		}
	case op == 3:
		// Complete a task with a live copy — usually a running one, but a
		// requeued task's late copy may win too. A winner is recorded,
		// losers killed, and the task leaves the running set.
		t := s.pick(func(t *cluster.Task) bool { return len(t.Copies) > 0 })
		if t == nil {
			for _, q := range s.queue {
				if len(q.Copies) > 0 {
					t = q
				}
			}
			if t == nil {
				break
			}
			s.queue = slices.DeleteFunc(s.queue, func(q *cluster.Task) bool { return q == t })
		}
		w := t.Copies[s.rng.Intn(len(t.Copies))]
		t.Win(w, now, func(*cluster.Copy) {})
		s.job.CompleteTask(t, now, nil)
		s.book.TaskDone(&s.jb, t, w) // withdraws its want
		s.ref.TaskCompleted(t, w)
		s.leave(t)
		s.done++
	case op == 4:
		// Queue some of what the policy wants, as Book.Scan does: the
		// walks must skip these from now on, and the next one to meet
		// their entries drops them.
		for _, t := range s.ref.CandidatesInto(now, s.running, -1, nil) {
			if s.rng.Intn(2) == 0 {
				s.jb.AddWant(t)
			}
		}
	case op == 5 && s.cfg.drop != noDrops:
		s.lose(now)
	case op == 6 && s.cfg.drop == dropAll:
		// A speculative copy handed out before its task was requeued
		// lands while the task waits to be handed out again.
		for _, t := range s.queue {
			if t.State == cluster.TaskRunning && len(t.Copies) == 0 {
				s.place(t, now, true)
				s.lateCopies++
				break
			}
		}
	}
	return s.done < s.total()
}

// lose loses copies of one running task by the configured kind, each
// loss reported as protocol.Sched.CopyLost reports it.
func (s *victimSim) lose(now float64) {
	var t *cluster.Task
	switch s.cfg.drop {
	case dropOriginal:
		t = s.pick(func(t *cluster.Task) bool { return len(t.Copies) > 0 })
	case dropSpeculative:
		t = s.pick(func(t *cluster.Task) bool { return len(t.Copies) > 1 })
	case dropAll:
		t = s.pick(func(*cluster.Task) bool { return true })
	}
	if t == nil {
		return
	}
	var lost []*cluster.Copy
	switch s.cfg.drop {
	case dropOriginal:
		lost = t.Copies[:1]
	case dropSpeculative:
		lost = t.Copies[1+s.rng.Intn(len(t.Copies)-1):][:1]
	case dropAll:
		lost = t.Copies
	}
	lost = slices.Clone(lost)
	if len(lost) == 0 {
		s.book.CopyLost(&s.jb, t) // a hand-out lost before its copy landed
	}
	for _, c := range lost {
		oldest := c == t.Copies[0]
		t.DropCopy(c)
		s.book.CopyLost(&s.jb, t)
		switch {
		case len(t.Copies) == 0:
		case oldest:
			s.rekeys++
		default:
			s.reopened++
		}
	}
	if len(t.Copies) == 0 {
		s.leave(t)
		s.queue = append(s.queue, t)
		s.requeues++
	}
}

// unwanted filters a scan's answer down to what the walks return: the
// tasks not already in the want queue.
func unwanted(ts []*cluster.Task) []*cluster.Task {
	var out []*cluster.Task
	for _, t := range ts {
		if !t.SpecWanted {
			out = append(out, t)
		}
	}
	return out
}

func tids(ts []*cluster.Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = tid(t)
	}
	return out
}

func tid(t *cluster.Task) string {
	if t == nil {
		return "<nil>"
	}
	return t.ID()
}

// answers counts what a differential run compared and exercised, so a
// run that never exercised a query, or a regime, fails instead of passing
// vacuously.
type answers struct {
	best, victims, candidates int
	multi                     int // victims with more than one live copy
	queued                    int // best victims only the want queue held
	retaken                   int
	rekeys, reopened          int
	requeues, lateCopies      int
}

func (a *answers) add(b answers) {
	a.best += b.best
	a.victims += b.victims
	a.candidates += b.candidates
	a.multi += b.multi
	a.queued += b.queued
	a.retaken += b.retaken
	a.rekeys += b.rekeys
	a.reopened += b.reopened
	a.requeues += b.requeues
	a.lateCopies += b.lateCopies
}

// compare holds the three indexed answers about the sim's job against
// the oracle's scans at time now: same tasks, same order.
func (s *victimSim) compare(t *testing.T, now float64, n *answers) {
	t.Helper()
	id, k := s.job.ID, s.cfg.k
	if scan, got := s.ref.BestVictim(now, s.running, k), s.book.BestVictim(now, &s.jb); scan != got {
		t.Fatalf("now %v job %d: BestVictim scan=%s index=%s", now, id, tid(scan), tid(got))
	} else if scan != nil {
		n.best++
		if scan.VictimCopy == nil {
			n.queued++ // a walk dropped its entry: the answer came from the queue
		}
	}
	scanV := unwanted(s.ref.VictimsInto(now, s.running, k, nil))
	if got := s.book.walk(now, &s.jb, false); !slices.Equal(scanV, got) {
		t.Fatalf("now %v job %d: Victims\n scan:  %v\n index: %v", now, id, tids(scanV), tids(got))
	}
	scanC := unwanted(s.ref.CandidatesInto(now, s.running, -1, nil))
	if got := s.book.walk(now, &s.jb, true); !slices.Equal(scanC, got) {
		t.Fatalf("now %v job %d: Candidates\n scan:  %v\n index: %v", now, id, tids(scanC), tids(got))
	}
	if len(scanV) > 1 {
		n.victims++ // more than one: their order is under test too
	}
	if len(scanC) > 0 && len(scanC) < len(scanV) {
		n.candidates++ // the policy said something the t_new cut did not
	}
	for _, v := range scanV {
		if len(v.Copies) > 1 {
			n.multi++
		}
	}
}

// runDifferential drives two jobs to completion under one regime through
// one book, so the jobs share its walk stack and result buffer, comparing
// after every step, and reports what was compared.
func runDifferential(t *testing.T, cfg simConfig, seed int64) (n answers) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	book := NewBook(Config{Policy: cfg.pol, MaxCopies: cfg.k}, 30)
	sims := []*victimSim{newVictimSim(cfg, &book, rng, 1), newVictimSim(cfg, &book, rng, 2)}
	now := 0.0
	for alive := true; alive; {
		now += float64(rng.Intn(5)) * 0.125
		alive = false
		for _, s := range sims {
			if s.step(now) {
				alive = true
			}
			s.compare(t, now, &n)
		}
	}
	for _, s := range sims {
		n.add(answers{retaken: s.retaken, rekeys: s.rekeys, reopened: s.reopened, requeues: s.requeues, lateCopies: s.lateCopies})
		if cfg.k < 2 && s.jb.Mon.victims.buckets != nil {
			t.Fatalf("seed %d: a cap of %d built an index for job %d", seed, cfg.k, s.job.ID)
		}
		if v := book.BestVictim(now, &s.jb); v != nil {
			t.Fatalf("seed %d: victim %v from a completed job", seed, tid(v))
		}
		if got := book.walk(now, &s.jb, false); len(got) != 0 {
			t.Fatalf("seed %d: victims %v from a completed job", seed, tids(got))
		}
		if got := book.walk(now, &s.jb, true); len(got) != 0 {
			t.Fatalf("seed %d: candidates %v from a completed job", seed, tids(got))
		}
	}
	return n
}

// TestIndexedVictimMatchesScan is the exact-equivalence differential for
// all three indexed queries: across randomized scheduler histories,
// Book.BestVictim must return the scan's task pointer, and the two walks
// the scans' tasks minus the queued wants in the scans' order, at every
// query time — including nil-vs-nil, clamped-zero remainings, remaining
// ties, entries dropped mid-walk, queued wants whose entries a walk
// dropped (answered from the want queue, and indexed again when taken),
// and the estNew switch from phase mean to job median. It runs every shipped policy at
// the default cap on one speed, then one regime per condition the index
// must hold under: copies at three speeds, each kind of copy loss, and
// caps of 1, 3 and 4.
func TestIndexedVictimMatchesScan(t *testing.T) {
	unit, three := []float64{1}, []float64{0.5, 1, 2}
	type regime struct {
		name string
		cfg  simConfig
		// want names the counters the regime must have moved.
		want func(answers) bool
	}
	exercised := func(n answers) bool {
		return n.best > 0 && n.victims > 0 && n.candidates > 0 && n.queued > 0 && n.retaken > 0
	}
	var regimes []regime
	for _, pol := range shipped {
		regimes = append(regimes, regime{pol.Name(), simConfig{pol: pol, k: 2, speeds: unit}, exercised})
	}
	regimes = append(regimes,
		regime{"hetero-3-speeds", simConfig{pol: LATE{}, k: 2, speeds: three}, exercised},
		regime{"original-lost", simConfig{pol: LATE{}, k: 2, speeds: three, drop: dropOriginal},
			func(n answers) bool { return exercised(n) && n.rekeys > 0 && n.requeues > 0 }},
		regime{"speculative-lost", simConfig{pol: LATE{}, k: 2, speeds: three, drop: dropSpeculative},
			func(n answers) bool { return exercised(n) && n.reopened > 0 }},
		regime{"all-lost-rehanded", simConfig{pol: LATE{}, k: 2, speeds: three, drop: dropAll},
			func(n answers) bool { return exercised(n) && n.requeues > 0 && n.lateCopies > 0 }},
		regime{"cap-1", simConfig{pol: LATE{}, k: 1, speeds: three, drop: dropAll},
			func(n answers) bool { return n.best == 0 && n.victims == 0 && n.candidates == 0 && n.requeues > 0 }},
		regime{"cap-3", simConfig{pol: Mantri{}, k: 3, speeds: unit, drop: dropOriginal},
			func(n answers) bool { return exercised(n) && n.multi > 0 && n.rekeys > 0 }},
		regime{"cap-3-hetero", simConfig{pol: GRASS{}, k: 3, speeds: three},
			func(n answers) bool { return exercised(n) && n.multi > 0 }},
		regime{"cap-4", simConfig{pol: LATE{}, k: 4, speeds: unit, drop: dropSpeculative},
			func(n answers) bool { return exercised(n) && n.multi > 0 && n.reopened > 0 }},
	)
	for _, r := range regimes {
		r := r
		t.Run(r.name, func(t *testing.T) {
			var total answers
			for seed := int64(1); seed <= 20; seed++ {
				n := runDifferential(t, r.cfg, seed)
				total.add(n)
			}
			if !r.want(total) {
				t.Fatalf("differential unexercised: %+v compared", total)
			}
		})
	}
}

// boundaryTask builds a one-task job of book's whose original copy has
// the given start, duration and speed, and an oracle for it, both holding
// the same five-completion history (t_new = hist).
func boundaryTask(book *Book, start, dur, speed, mean, hist float64) (jb *JobBook, ref *Monitor, running []*cluster.Task) {
	ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: []*cluster.Task{{}, {}}}
	rec := book.NewJob(cluster.NewJob(1, "", 0, []*cluster.Phase{ph}))
	jb, ref = &rec, NewMonitor(*book.cfg, nil)
	task := ph.Tasks[0]
	task.State = cluster.TaskRunning
	feed(&jb.Mon, ph.Tasks[1], hist, 5)
	feed(ref, ph.Tasks[1], hist, 5)
	jb.Mon.TaskHandedOut(task)
	task.Copies = []*cluster.Copy{{Task: task, Start: start, Duration: dur, Speed: speed}}
	jb.Mon.CopyPlaced(task)
	return jb, ref, []*cluster.Task{task}
}

// firstTrue returns the least float at or after a guess near the boundary
// at which pred (monotone: false, then true) holds.
func firstTrue(guess float64, pred func(float64) bool) float64 {
	x := guess
	for pred(x) {
		x = math.Nextafter(x, math.Inf(-1))
	}
	for !pred(x) {
		x = math.Nextafter(x, math.Inf(1))
	}
	return x
}

// TestIndexAgreesWithScanAtTheUlp: a tick or a completion can land
// exactly where a copy becomes observable, or where its remaining time
// crosses t_new. There the index must decide as the scan decides, to the
// last bit: (now − Start)·s >= delay, not a precomputed Start + delay <=
// now (the two round differently), and max(0, Finish − now)·s > t_new.
// For many non-dyadic starts and delays, query just below, at, and just
// above both boundaries, in clock order — at unit speed around the naive
// boundary, and at non-dyadic speeds around the scan's own first ripe and
// first failing instants, where the index's cached quiet bound
// (unripeBefore at delay/s) must not run past the flip either.
func TestIndexAgreesWithScanAtTheUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	book := NewBook(Config{Policy: Mantri{}}, 30)
	naiveDisagrees, ripeFlips, cutFlips := 0, 0, 0
	check := func(idx *JobBook, ref *Monitor, running []*cluster.Task, now float64, what string) (victim bool) {
		t.Helper()
		scan := ref.BestVictim(now, running, 2)
		if got := book.BestVictim(now, idx); got != scan {
			t.Fatalf("%s, now %v: BestVictim scan=%s index=%s", what, now, tid(scan), tid(got))
		}
		if got, want := book.walk(now, idx, false), ref.VictimsInto(now, running, 2, nil); !slices.Equal(got, want) {
			t.Fatalf("%s, now %v: Victims scan=%v index=%v", what, now, tids(want), tids(got))
		}
		if got, want := book.walk(now, idx, true), ref.CandidatesInto(now, running, -1, nil); !slices.Equal(got, want) {
			t.Fatalf("%s, now %v: Candidates scan=%v index=%v", what, now, tids(want), tids(got))
		}
		return scan != nil
	}
	// around queries just below, at and just above x; it reports whether
	// the answer flipped from empty to a victim (up) or back (down).
	around := func(idx *JobBook, ref *Monitor, running []*cluster.Task, x float64, what string) (up, down bool) {
		before := check(idx, ref, running, math.Nextafter(x, 0), what)
		check(idx, ref, running, x, what)
		after := check(idx, ref, running, math.Nextafter(x, math.Inf(1)), what)
		return !before && after, before && !after
	}
	for i := 0; i < 2000; i++ {
		start := rng.Float64() * 100
		mean := 0.1 + rng.Float64()*3
		delay := 0.25 * mean

		// Ripeness: a straggler (it beats t_new by far), queried around
		// the instant it becomes observable.
		idx, ref, running := boundaryTask(&book, start, 1000*mean, 1, mean, mean)
		ripeAt := start + delay
		if below := math.Nextafter(ripeAt, 0); ripeAt-start < delay || !(below-start < delay) {
			naiveDisagrees++ // the scan is not ripe at ripeAt, or already ripe below it
		}
		if up, _ := around(idx, ref, running, ripeAt, "ripeness"); up {
			ripeFlips++
		}

		// The t_new cut: an observable copy, queried around the instant
		// its remaining time stops beating a fresh copy's.
		tNew := mean * (0.5 + rng.Float64())
		dur := 10*mean + rng.Float64()
		idx, ref, running = boundaryTask(&book, start, dur, 1, mean, tNew)
		if _, down := around(idx, ref, running, (start+dur)-tNew, "t_new cut"); down {
			cutFlips++
		}

		// Both again on a copy at a non-dyadic speed, around the scan's
		// own flips.
		s := 0.3 + rng.Float64()*3
		idx, ref, running = boundaryTask(&book, start, 1000*mean, s, mean, mean)
		ripe := firstTrue(start+delay/s, func(now float64) bool { return !((now-start)*s < delay) })
		if up, _ := around(idx, ref, running, ripe, "off-speed ripeness"); !up {
			t.Fatalf("speed %v: the scan did not turn ripe at %v", s, ripe)
		}
		idx, ref, running = boundaryTask(&book, start, dur, s, mean, tNew)
		fails := firstTrue(start+dur-tNew/s, func(now float64) bool { return !(max(0, start+dur-now)*s > tNew) })
		if _, down := around(idx, ref, running, fails, "off-speed t_new cut"); !down {
			t.Fatalf("speed %v: the scan did not fail the cut at %v", s, fails)
		}
	}
	if naiveDisagrees == 0 {
		t.Error("no case where Start + delay <= now and now − Start >= delay disagree: the ripeness boundary is not being probed at the ulp")
	}
	if ripeFlips == 0 || cutFlips == 0 {
		t.Errorf("answers flipped across the ripeness boundary %d times and across the t_new cut %d times; both must be straddled", ripeFlips, cutFlips)
	}
}

// TestPoliciesImplyVictim is the subset argument as an executable fact:
// every policy ByName can return wants a copy only when a fresh one would
// beat it (Remaining > New), so a walk pruned on that cut sees every
// candidate. A policy added to the table that speculates on anything
// else fails here, instead of silently losing candidates under the index.
func TestPoliciesImplyVictim(t *testing.T) {
	grid := []float64{0, 0.25, 0.5, 1, 1.5, 2, 2.5, 4, 10, 100}
	fracs := []float64{0, 0.5, 0.79, 0.8, 0.81, 1}
	for _, pol := range shipped {
		if ByName(pol.Name()) != pol {
			t.Fatalf("ByName(%q) does not return the table's policy", pol.Name())
		}
		wanted := 0
		for _, rem := range grid {
			for _, fresh := range grid {
				for _, total := range grid {
					for _, slow := range grid {
						for _, f := range fracs {
							e := Estimates{Remaining: rem, New: fresh, ProjectedTotal: total, SlowThreshold: slow, PhaseFractionDone: f}
							if !pol.Wants(e) {
								continue
							}
							wanted++
							if !(e.Remaining > e.New) {
								t.Fatalf("%s wants %+v, which is no victim (Remaining <= New): the index would prune it", pol.Name(), e)
							}
						}
					}
				}
			}
		}
		if wanted == 0 {
			t.Errorf("%s wants nothing on the grid; the implication is untested", pol.Name())
		}
	}
}

// TestIndexShedsFinishedEntries: entries of finished tasks do not pile up
// until the job ends — a bucket is swept once they outnumber its running
// tasks, and its arrays shrink with it.
func TestIndexShedsFinishedEntries(t *testing.T) {
	const n = 4096
	ph := &cluster.Phase{MeanTaskDuration: 1, Tasks: make([]*cluster.Task, n)}
	for i := range ph.Tasks {
		ph.Tasks[i] = &cluster.Task{}
	}
	cluster.NewJob(1, "", 0, []*cluster.Phase{ph})
	m := NewMonitor(Config{}, nil)
	var stack []int
	for _, task := range ph.Tasks {
		task.State = cluster.TaskRunning
		m.TaskHandedOut(task)
		task.Copies = []*cluster.Copy{{Task: task, Start: 0, Duration: 2, Speed: 1}}
		m.CopyPlaced(task)
	}
	b := &m.victims.buckets[0]
	m.bestVictim(1, &stack) // everything ripens
	if len(b.ready) != n {
		t.Fatalf("ready holds %d entries after the wave ripened, want %d", len(b.ready), n)
	}
	for _, task := range ph.Tasks[:n-10] {
		task.State = cluster.TaskDone
		task.Copies[0].Won = true
		m.TaskCompleted(task, task.Copies[0])
	}
	m.bestVictim(2, &stack)
	if len(b.ready) > 10 || cap(b.ready) > 64 || cap(b.ripening) > 64 {
		t.Fatalf("after %d of %d tasks finished the bucket still holds len %d cap %d (ripening cap %d)",
			n-10, n, len(b.ready), cap(b.ready), cap(b.ripening))
	}
}
