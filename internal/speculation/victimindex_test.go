package speculation

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
)

// victimSim drives one job through randomized hand-out / placement /
// want-queueing / speculation / completion traffic, mirroring what a
// scheduler does to its monitor, twice over: idx is the monitor under
// test (index on), ref an oracle that never leaves the scans. Both hear
// the same events, so their histories agree and every indexed answer can
// be held against the scan's at every step.
type victimSim struct {
	idx, ref *Monitor
	rng      *rand.Rand
	job      *cluster.Job
	running  []*cluster.Task // nil-tombstoned, like RunningSet
	fresh    []*cluster.Task // handed out, original not yet placed
	placed   []*cluster.Task // running with a placed original
	done     int

	// speed is the speed factor stamped on the next original placed; the
	// downgrade test flips it mid-run.
	speed float64
}

func newVictimSim(idx, ref *Monitor, rng *rand.Rand, id cluster.JobID) *victimSim {
	var phases []*cluster.Phase
	for p := 0; p < 2; p++ {
		ph := &cluster.Phase{MeanTaskDuration: []float64{1.0, 2.5}[p], Tasks: make([]*cluster.Task, 20)}
		for i := range ph.Tasks {
			ph.Tasks[i] = &cluster.Task{}
		}
		phases = append(phases, ph)
	}
	return &victimSim{idx: idx, ref: ref, rng: rng, job: cluster.NewJob(id, "", 0, phases), speed: 1}
}

func (s *victimSim) total() int { return len(s.job.Phases[0].Tasks) + len(s.job.Phases[1].Tasks) }

// step performs one random scheduler action at time now and reports
// whether the job still has work.
func (s *victimSim) step(now float64) bool {
	handed := len(s.fresh) + len(s.placed) + s.done
	switch op := s.rng.Intn(5); {
	case op == 0 && handed < s.total():
		// Hand out the next fresh task, interleaving the two phases so
		// both buckets are live at once.
		ph := s.job.Phases[handed%2]
		t := ph.Tasks[handed/2]
		t.State = cluster.TaskRunning
		s.running = append(s.running, t)
		s.idx.TaskHandedOut(t)
		s.fresh = append(s.fresh, t)
	case op == 1 && len(s.fresh) > 0:
		// Place a pending original. Quantized durations manufacture
		// finish-time ties, exercising the hand-out-order tie-break, and
		// land completions, ripeness and the t_new cut exactly on clock
		// steps.
		i := s.rng.Intn(len(s.fresh))
		t := s.fresh[i]
		s.fresh[i] = s.fresh[len(s.fresh)-1]
		s.fresh = s.fresh[:len(s.fresh)-1]
		t.Copies = append(t.Copies, &cluster.Copy{
			Task: t, Start: now, Duration: float64(s.rng.Intn(16)+1) * 0.5, Speed: s.speed,
		})
		s.idx.OriginalCopyPlaced(t)
		s.placed = append(s.placed, t)
	case op == 2 && len(s.placed) > 0:
		// Add a speculative copy to a running task (drops it out of
		// victim eligibility in both implementations), taking it off the
		// want queue as a scheduler's popWant does.
		t := s.placed[s.rng.Intn(len(s.placed))]
		if len(t.Copies) == 1 {
			t.SpecWanted = false
			t.Copies = append(t.Copies, &cluster.Copy{
				Task: t, Start: now, Duration: float64(s.rng.Intn(8)+1) * 0.5, Speculative: true, Speed: 1,
			})
		}
	case op == 3 && len(s.placed) > 0:
		// Complete a placed task: a winner is recorded, losers killed,
		// and the task leaves the running set and the want queue.
		i := s.rng.Intn(len(s.placed))
		t := s.placed[i]
		s.placed[i] = s.placed[len(s.placed)-1]
		s.placed = s.placed[:len(s.placed)-1]
		w := t.Copies[s.rng.Intn(len(t.Copies))]
		w.Won = true
		for _, c := range t.Copies {
			if !c.Won {
				c.Killed = true
			}
		}
		t.State = cluster.TaskDone
		t.SpecWanted = false
		s.job.CompleteTask(t, now, nil)
		s.idx.TaskCompleted(t, w)
		s.ref.TaskCompleted(t, w)
		for j, rt := range s.running {
			if rt == t {
				s.running[j] = nil
			}
		}
		s.done++
	case op == 4:
		// Queue some of what the policy wants, as a scheduler's addWant
		// does: the indexed queries must skip these from now on.
		for _, t := range s.ref.CandidatesInto(now, s.running, -1, nil) {
			if s.rng.Intn(2) == 0 {
				t.SpecWanted = true
			}
		}
	}
	return s.done < s.total()
}

// unwanted filters a scan's answer down to what the indexed queries
// return: the tasks not already in the want queue.
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

// answers counts the non-empty answers a differential run compared, per
// query, so a run that never exercised one fails instead of passing
// vacuously.
type answers struct{ best, victims, candidates int }

// compare holds the three indexed answers about the sim's job against
// the oracle's scans at time now: same tasks, same order.
func (s *victimSim) compare(t *testing.T, now float64, n *answers) {
	t.Helper()
	id := s.job.ID
	if scan, got := s.ref.BestVictim(now, s.running, 2), s.idx.BestVictimFor(now, id, s.running, 2); scan != got {
		t.Fatalf("now %v job %d: BestVictim scan=%s index=%s", now, id, tid(scan), tid(got))
	} else if scan != nil {
		n.best++
	}
	// On the index the For queries skip wanted tasks themselves; once
	// downgraded they are the scans, which leave that to the caller.
	filter := unwanted
	if s.idx.IndexEnabled() {
		filter = func(ts []*cluster.Task) []*cluster.Task { return ts }
	}
	scanV := unwanted(s.ref.VictimsInto(now, s.running, 2, nil))
	if got := filter(s.idx.VictimsFor(now, id, s.running, 2, nil)); !slices.Equal(scanV, got) {
		t.Fatalf("now %v job %d: Victims\n scan:  %v\n index: %v", now, id, tids(scanV), tids(got))
	}
	scanC := unwanted(s.ref.CandidatesInto(now, s.running, -1, nil))
	if got := filter(s.idx.CandidatesFor(now, id, s.running, nil)); !slices.Equal(scanC, got) {
		t.Fatalf("now %v job %d: Candidates\n scan:  %v\n index: %v", now, id, tids(scanC), tids(got))
	}
	if len(scanV) > 1 {
		n.victims++ // more than one: their order is under test too
	}
	if len(scanC) > 0 && len(scanC) < len(scanV) {
		n.candidates++ // the policy said something the t_new cut did not
	}
}

// runDifferential drives two jobs to completion under one policy,
// comparing after every step, and calls midway once, halfway through the
// hand-outs, with the sims and the clock. It reports what was compared.
func runDifferential(t *testing.T, pol Policy, seed int64, midway func(sims []*victimSim, now float64)) (idx *Monitor, n answers) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idx = NewMonitor(Config{Policy: pol}, rng)
	idx.EnableIndex()
	ref := NewMonitor(Config{Policy: pol}, rng)
	sims := []*victimSim{newVictimSim(idx, ref, rng, 1), newVictimSim(idx, ref, rng, 2)}
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
		if midway != nil && sims[0].done+sims[1].done >= sims[0].total() {
			midway(sims, now)
			midway = nil
		}
	}
	for _, s := range sims {
		idx.JobDone(s.job)
		ref.JobDone(s.job)
		if v := idx.BestVictimFor(now, s.job.ID, s.running, 2); v != nil {
			t.Fatalf("seed %d: victim %v from a completed job", seed, tid(v))
		}
		if got := idx.VictimsFor(now, s.job.ID, s.running, 2, nil); len(got) != 0 {
			t.Fatalf("seed %d: victims %v from a completed job", seed, tids(got))
		}
	}
	return idx, n
}

// TestIndexedVictimMatchesScan is the exact-equivalence differential for
// all three indexed queries under every shipped policy: across randomized
// scheduler histories, BestVictimFor must return the scan's task pointer,
// and CandidatesFor and VictimsFor the scans' tasks minus the already
// wanted ones in the scans' order, at every query time — including
// nil-vs-nil, clamped-zero remainings, finish ties, entries dropped
// mid-walk, and the estNew switch from phase mean to job median.
func TestIndexedVictimMatchesScan(t *testing.T) {
	for _, pol := range shipped {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			var total answers
			for seed := int64(1); seed <= 20; seed++ {
				idx, n := runDifferential(t, pol, seed, nil)
				if !idx.IndexEnabled() {
					t.Fatalf("seed %d: the monitor under test left the index; the differential compared scan with scan", seed)
				}
				total.best += n.best
				total.victims += n.victims
				total.candidates += n.candidates
			}
			if total.best == 0 || total.victims == 0 || total.candidates == 0 {
				t.Fatalf("differential unexercised: %+v non-empty answers compared", total)
			}
		})
	}
}

// TestIndexDowngradesMatchScan: the two run-time downgrades — an original
// placed at non-unit speed, and DisableIndex (what the churn driver
// calls) — may come at any point of a run; from then on the For queries
// are the scans, over the same history.
func TestIndexDowngradesMatchScan(t *testing.T) {
	downgrades := map[string]func(sims []*victimSim, now float64){
		"off-speed copy": func(sims []*victimSim, now float64) { sims[0].speed = 2 },
		"DisableIndex":   func(sims []*victimSim, now float64) { sims[0].idx.DisableIndex() },
	}
	for name, downgrade := range downgrades {
		downgrade := downgrade
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				wasOn := false
				idx, _ := runDifferential(t, LATE{SlowTaskPercentile: 25}, seed, func(sims []*victimSim, now float64) {
					wasOn = sims[0].idx.IndexEnabled()
					downgrade(sims, now)
				})
				if !wasOn {
					t.Fatalf("seed %d: index already off before the downgrade", seed)
				}
				if idx.IndexEnabled() {
					t.Fatalf("seed %d: index still on after the downgrade", seed)
				}
			}
		})
	}
}

// boundaryTask builds a one-task job whose original copy has the given
// start and duration, registered with an indexed monitor and an oracle,
// both holding the same five-completion history (t_new = hist).
func boundaryTask(start, dur, mean, hist float64) (idx, ref *Monitor, task *cluster.Task, running []*cluster.Task) {
	ph := &cluster.Phase{MeanTaskDuration: mean, Tasks: []*cluster.Task{{}, {}}}
	cluster.NewJob(1, "", 0, []*cluster.Phase{ph})
	task = ph.Tasks[0]
	task.State = cluster.TaskRunning
	rng := rand.New(rand.NewSource(1))
	idx, ref = NewMonitor(Config{Policy: Mantri{}}, rng), NewMonitor(Config{Policy: Mantri{}}, rng)
	feed(idx, ph.Tasks[1], hist, 5)
	feed(ref, ph.Tasks[1], hist, 5)
	idx.EnableIndex()
	idx.TaskHandedOut(task)
	task.Copies = []*cluster.Copy{{Task: task, Start: start, Duration: dur, Speed: 1}}
	idx.OriginalCopyPlaced(task)
	return idx, ref, task, []*cluster.Task{task}
}

// TestIndexAgreesWithScanAtTheUlp: a tick or a completion can land
// exactly where a copy becomes observable, or where its remaining time
// crosses t_new. There the index must decide as the scan decides, to the
// last bit: now − Start >= delay, not a precomputed Start + delay <= now
// (the two round differently), and max(0, Finish − now) > t_new. For many
// non-dyadic starts and delays, query just below, at, and just above both
// boundaries, in clock order.
func TestIndexAgreesWithScanAtTheUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	naiveDisagrees, ripeFlips, cutFlips := 0, 0, 0
	check := func(idx, ref *Monitor, running []*cluster.Task, now float64, what string) (victim bool) {
		t.Helper()
		scan := ref.BestVictim(now, running, 2)
		if got := idx.BestVictimFor(now, 1, running, 2); got != scan {
			t.Fatalf("%s, now %v: BestVictim scan=%s index=%s", what, now, tid(scan), tid(got))
		}
		if got, want := idx.VictimsFor(now, 1, running, 2, nil), ref.VictimsInto(now, running, 2, nil); !slices.Equal(got, want) {
			t.Fatalf("%s, now %v: Victims scan=%v index=%v", what, now, tids(want), tids(got))
		}
		if got, want := idx.CandidatesFor(now, 1, running, nil), ref.CandidatesInto(now, running, -1, nil); !slices.Equal(got, want) {
			t.Fatalf("%s, now %v: Candidates scan=%v index=%v", what, now, tids(want), tids(got))
		}
		return scan != nil
	}
	for i := 0; i < 2000; i++ {
		start := rng.Float64() * 100
		mean := 0.1 + rng.Float64()*3
		delay := 0.25 * mean

		// Ripeness: a straggler (it beats t_new by far), queried around
		// the instant it becomes observable.
		idx, ref, _, running := boundaryTask(start, 1000*mean, mean, mean)
		ripeAt := start + delay
		if below := math.Nextafter(ripeAt, 0); ripeAt-start < delay || !(below-start < delay) {
			naiveDisagrees++ // the scan is not ripe at ripeAt, or already ripe below it
		}
		before := check(idx, ref, running, math.Nextafter(ripeAt, 0), "ripeness")
		check(idx, ref, running, ripeAt, "ripeness")
		after := check(idx, ref, running, math.Nextafter(ripeAt, math.Inf(1)), "ripeness")
		if !before && after {
			ripeFlips++
		}

		// The t_new cut: an observable copy, queried around the instant
		// its remaining time stops beating a fresh copy's.
		tNew := mean * (0.5 + rng.Float64())
		dur := 10*mean + rng.Float64()
		idx, ref, _, running = boundaryTask(start, dur, mean, tNew)
		cutAt := (start + dur) - tNew
		before = check(idx, ref, running, math.Nextafter(cutAt, 0), "t_new cut")
		check(idx, ref, running, cutAt, "t_new cut")
		after = check(idx, ref, running, math.Nextafter(cutAt, math.Inf(1)), "t_new cut")
		if before && !after {
			cutFlips++
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
	j := cluster.NewJob(1, "", 0, []*cluster.Phase{ph})
	m := NewMonitor(Config{}, rand.New(rand.NewSource(1)))
	m.EnableIndex()
	for _, task := range ph.Tasks {
		task.State = cluster.TaskRunning
		m.TaskHandedOut(task)
		task.Copies = []*cluster.Copy{{Task: task, Start: 0, Duration: 2, Speed: 1}}
		m.OriginalCopyPlaced(task)
	}
	b := &m.jobs[j.ID].victims.buckets[0]
	m.BestVictimFor(1, j.ID, nil, 2) // everything ripens
	if len(b.ready) != n {
		t.Fatalf("ready holds %d entries after the wave ripened, want %d", len(b.ready), n)
	}
	for _, task := range ph.Tasks[:n-10] {
		task.State = cluster.TaskDone
		task.Copies[0].Won = true
		m.TaskCompleted(task, task.Copies[0])
	}
	m.BestVictimFor(2, j.ID, nil, 2)
	if len(b.ready) > 10 || cap(b.ready) > 64 || cap(b.ripening) > 64 {
		t.Fatalf("after %d of %d tasks finished the bucket still holds len %d cap %d (ripening cap %d)",
			n-10, n, len(b.ready), cap(b.ready), cap(b.ripening))
	}
}

// TestEnableIndexGuards pins that the index refuses configurations where
// it cannot be exact, and that Config.IndexExact is that gate.
func TestEnableIndexGuards(t *testing.T) {
	for _, cfg := range []Config{{MaxCopies: 3}, {MaxCopies: 1}, {EstimateNoise: 0.1}} {
		if cfg.IndexExact() {
			t.Errorf("IndexExact(%+v) = true", cfg)
		}
		m := NewMonitor(cfg, rand.New(rand.NewSource(1)))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EnableIndex(%+v) did not panic", cfg)
				}
			}()
			m.EnableIndex()
		}()
	}
	for _, cfg := range []Config{{}, {MaxCopies: 2, Policy: Mantri{}}} {
		if !cfg.IndexExact() {
			t.Errorf("IndexExact(%+v) = false", cfg)
		}
	}
}
