// Package speculation implements the straggler-mitigation algorithms the
// paper evaluates Hopper with (Section 7.2): LATE, Mantri, and GRASS.
//
// All three follow the same loop — monitor running copies, estimate each
// task's remaining time and the cost of a fresh copy, and request a
// speculative copy when the policy's benefit rule fires. Whether the
// request actually receives a slot is the *scheduler's* decision; the
// paper's whole point is that this second decision is where the gains
// are, not in the detection rules themselves (Figure 9 shows Hopper's
// gains are nearly identical across the three policies).
//
// Observation model: a copy reveals nothing until it has run for an
// observation delay (a fraction of the phase's mean task duration),
// mirroring real progress-rate estimation, after which its projected
// total duration is visible. The estimate of a fresh copy's duration
// (t_new) is the median of the job's completed copies, falling back to
// the phase mean before enough tasks finish.
package speculation

import (
	"math/rand"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/stats"
)

// Estimates carries the policy-visible numbers for one running task. All
// times are in baseline-speed work units (wall-clock scaled by the
// running machine's speed factor, Copy.Work*), so estimates from copies
// on fast and slow machines compare correctly; on homogeneous clusters
// every speed is 1 and work equals wall-clock exactly.
type Estimates struct {
	// Remaining is the estimated remaining time of the task's best
	// (soonest-finishing) observable live copy.
	Remaining float64
	// New is the estimated duration of a fresh copy of the task.
	New float64
	// ProjectedTotal is the estimated total duration of the task's best
	// live copy (elapsed / progress extrapolation).
	ProjectedTotal float64
	// SlowThreshold is the duration at the job's straggler percentile
	// (e.g. LATE's 75th percentile of completed durations).
	SlowThreshold float64
	// PhaseFractionDone is the fraction of the task's phase that has
	// completed, used by GRASS's mode switch.
	PhaseFractionDone float64
}

// Policy is a straggler-mitigation decision rule: given the estimates for
// one running task, should a speculative copy be requested?
type Policy interface {
	// Name identifies the policy in reports ("LATE", "Mantri", "GRASS").
	Name() string
	// Wants reports whether a speculative copy is worth requesting.
	Wants(e Estimates) bool
}

// LATE (Zaharia et al., OSDI'08) speculates a task when its best copy is
// projected to be slower than the job's slow-task threshold — a projected
// duration above the 75th percentile of completions (slowPct), LATE's
// deployed setting — and a fresh copy is expected to finish sooner than
// the current one.
type LATE struct{}

// Name implements Policy.
func (LATE) Name() string { return "LATE" }

// Wants implements Policy.
func (LATE) Wants(e Estimates) bool {
	return e.Remaining > e.New && e.ProjectedTotal >= e.SlowThreshold
}

// Mantri (Ananthanarayanan et al., OSDI'10) is resource-aware: it
// speculates only when the remaining time exceeds twice the cost of a
// fresh copy, so the expected resource saving is positive.
type Mantri struct{}

// Name implements Policy.
func (Mantri) Name() string { return "Mantri" }

// Wants implements Policy.
func (Mantri) Wants(e Estimates) bool {
	return e.Remaining > 2*e.New
}

// GRASS (Ananthanarayanan et al., NSDI'14) switches between Mantri-style
// resource-aware speculation (RA) early in a phase and greedy speculation
// (GS, LATE-aggressive) near phase completion, where clearing the last
// stragglers dominates job completion time. It flips once
// grassSwitchFraction of the phase has completed.
type GRASS struct{}

// grassSwitchFraction is the phase-completion fraction at which GRASS
// flips from RA to GS.
const grassSwitchFraction = 0.8

// Name implements Policy.
func (GRASS) Name() string { return "GRASS" }

// Wants implements Policy.
func (GRASS) Wants(e Estimates) bool {
	if e.PhaseFractionDone >= grassSwitchFraction {
		return e.Remaining > e.New // GS: greedy
	}
	return e.Remaining > 2*e.New // RA: resource-aware
}

// shipped lists the policies ByName knows. Each rule must imply
// Remaining > New — a copy is only worth racing if a fresh one would beat
// it — because the victim index prunes on that cut before it asks the
// policy (victimindex.go); TestPoliciesImplyVictim holds every entry to
// it.
var shipped = []Policy{LATE{}, Mantri{}, GRASS{}}

// ByName returns the policy for a report name; it panics on unknown names
// (experiment configs are static, so this is a programming error).
func ByName(name string) Policy {
	for _, p := range shipped {
		if p.Name() == name {
			return p
		}
	}
	panic("speculation: unknown policy " + name)
}

// Config is the table of the parameters both planes share: the
// straggler monitor's, and the two every Hopper allocation reads (the tail
// prior behind virtual sizes and the fairness allowance). The centralized
// chassis (scheduler.Config) and the decentralized core (protocol.Config)
// each embed it as Spec, so each default below is written once.
type Config struct {
	// Policy is the straggler-detection rule. Default LATE; Mantri and
	// GRASS are the alternatives Figure 9 compares.
	Policy Policy

	// MaxCopies caps live copies per task, original included. Default 2,
	// ours: the systems the paper builds on race one speculative copy
	// beside the original at a time.
	MaxCopies int

	// DetectDelayFrac is the fraction of the phase's mean task duration a
	// copy must run before its progress is observable. Default 0.25,
	// ours: the paper states no detection delay, and Table 1's example
	// detects at 0.2 of the mean.
	DetectDelayFrac float64

	// BetaPrior is what the online tail estimator (Book.Beta) reports
	// before it has seen enough completions; virtual sizes scale with 2/β
	// (Section 4.1). Default cluster.DefaultExecModel().Beta, ours: the
	// estimator starts at the tail the simulated copies are drawn from.
	BetaPrior float64

	// Epsilon is the fairness allowance of Section 4.3: a job's target
	// never falls below (1−ε) of its fair share. Default 0.1 (§4.3);
	// 1 turns the floor off.
	Epsilon float64
}

// WithDefaults fills zero fields with the defaults described above.
func (c Config) WithDefaults() Config {
	if c.Policy == nil {
		c.Policy = LATE{}
	}
	if c.MaxCopies == 0 {
		c.MaxCopies = 2
	}
	if c.DetectDelayFrac == 0 {
		c.DetectDelayFrac = 0.25
	}
	if c.BetaPrior == 0 {
		c.BetaPrior = cluster.DefaultExecModel().Beta
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	return c
}

// Monitor is the straggler monitor's record of one job: its completion
// history, for t_new and slow-threshold estimation, the estimate cache
// over that history, and its victim index (victimindex.go). Book.NewJob
// builds one per job, held by value as JobBook.Mon, so it lives and dies
// with its owner's job record and nothing looks it up by job ID. It is
// not safe for concurrent use.
//
// version counts completions; it is the dirty cursor for the estimate
// cache. The policy-visible t_new (median of completions) and slow
// threshold (completion percentile) change only when a task of the job
// completes, yet the old code recomputed both — each a sort-backed
// percentile query — for every running task on every scan. The cache
// recomputes them once per completion, so a scan over R running tasks
// costs O(R) instead of O(R · N log N).
type Monitor struct {
	cfg *Config // shared with the monitor's Book

	done    stats.Summary
	version int

	// cachedAt is the version estNew/slowThr were computed at. Zero means
	// never: estimates are read only from five completions on (history),
	// so no read meets version 0.
	cachedAt int
	estNew   float64
	slowThr  float64

	// victims is the job's victim index: zero until the job hands out a
	// task.
	victims jobVictims
}

// slowPct is the completion percentile of the slow-task threshold
// (LATE's slowest quarter).
const slowPct = 75.0

// NewMonitor returns a Monitor with the given config (defaults applied)
// that no Book holds: the tests' scan oracle and the benchmark module's
// (bench/layers.go) speculation row. The monitor draws nothing: rng is
// unused, and stays in the signature only because the benchmark calls it
// so.
func NewMonitor(cfg Config, rng *rand.Rand) *Monitor {
	cfg = cfg.WithDefaults()
	return &Monitor{cfg: &cfg}
}

// TaskCompleted records the winning copy's duration for the job's t_new
// and slow-threshold estimates and retires the task from the victim
// index. Book.TaskDone calls it.
func (m *Monitor) TaskCompleted(t *cluster.Task, winner *cluster.Copy) {
	m.done.Add(winner.WorkDuration())
	m.version++
	m.victims.retire(t)
}

// history returns the monitor once its completion history is deep enough
// to estimate from (five completions), with the cached estimates
// refreshed; nil until then. Scans resolve it once, not per task.
func (m *Monitor) history() *Monitor {
	if m.done.N() < 5 {
		return nil
	}
	if m.cachedAt != m.version {
		m.estNew = m.done.Median()
		m.slowThr = m.done.Percentile(slowPct)
		m.cachedAt = m.version
	}
	return m
}

// estNew returns the estimated duration of a fresh copy of a task of the
// phase: the job's median completion, or the phase mean before history
// accumulates (hist == nil). It is uniform within a (job, phase) bucket,
// which the victim index relies on.
func estNew(hist *Monitor, phase *cluster.Phase) float64 {
	if hist != nil {
		return hist.estNew
	}
	return phase.MeanTaskDuration
}

// slowThreshold returns the straggler cutoff for LATE-style percentile
// tests. Falls back to twice the phase mean before history accumulates.
func slowThreshold(hist *Monitor, phase *cluster.Phase) float64 {
	if hist != nil {
		return hist.slowThr
	}
	return 2 * phase.MeanTaskDuration
}

// Wants evaluates the policy for one running task at time now. It returns
// false when the task is done, already at the copy cap, or none of its
// copies have run long enough to observe.
func (m *Monitor) Wants(now float64, t *cluster.Task) bool {
	return m.wants(now, t, m.history())
}

// observable returns the task's live-copy count and, among the copies
// that have run past the observation delay, the one with the least
// remaining work (nil when none has).
func (m *Monitor) observable(now float64, t *cluster.Task) (live int, best *cluster.Copy) {
	for _, c := range t.Copies {
		if c.Killed || c.Won {
			continue
		}
		live++
		if c.WorkElapsed(now) < m.cfg.DetectDelayFrac*t.Phase.MeanTaskDuration {
			continue
		}
		if best == nil || c.WorkRemaining(now) < best.WorkRemaining(now) {
			best = c
		}
	}
	return live, best
}

// wants is Wants with the job's history (Monitor.history) already
// resolved.
func (m *Monitor) wants(now float64, t *cluster.Task, hist *Monitor) bool {
	if t.State != cluster.TaskRunning {
		return false
	}
	live, best := m.observable(now, t)
	if live == 0 || live >= m.cfg.MaxCopies || best == nil {
		return false
	}
	return m.cfg.Policy.Wants(m.estimates(now, t, best, hist))
}

// estimates builds the policy-visible numbers for a task whose best
// observable copy is best.
func (m *Monitor) estimates(now float64, t *cluster.Task, best *cluster.Copy, hist *Monitor) Estimates {
	phase := t.Phase
	return Estimates{
		Remaining:         best.WorkRemaining(now),
		New:               estNew(hist, phase),
		ProjectedTotal:    best.WorkDuration(),
		SlowThreshold:     slowThreshold(hist, phase),
		PhaseFractionDone: float64(len(phase.Tasks)-phase.RemainingTasks()) / float64(len(phase.Tasks)),
	}
}

// CandidatesInto scans the given running tasks and returns those the
// policy wants to speculate, up to budget (budget < 0 means unlimited).
// The returned order matches the input order. Nil entries in running are
// skipped. dst is truncated and reused, so the scan allocates nothing
// once the buffer has grown; the returned slice aliases dst. Every task
// is judged against this monitor's history: running holds one job's
// tasks.
func (m *Monitor) CandidatesInto(now float64, running []*cluster.Task, budget int, dst []*cluster.Task) []*cluster.Task {
	out := dst[:0]
	hist := m.history()
	for _, t := range running {
		if budget >= 0 && len(out) >= budget {
			break
		}
		if t != nil && m.wants(now, t, hist) {
			out = append(out, t)
		}
	}
	return out
}

// BestVictim picks the task to duplicate when a job has allocated
// capacity to fill — Hopper's capacity-driven speculation. A job below
// its virtual size is, by definition, below its desired speculation
// level (Pseudocode 2 accepts whenever current_occupied < virtual_size),
// so the slot races the job's worst observable straggler even if the
// detection policy has not flagged it yet.
//
// The victim is the observable running task with the largest estimated
// remaining time whose fresh copy would beat it (estimated remaining >
// t_new), below the copy cap. Tasks younger than the observation delay
// are never raced: a fresh draw would not beat them in expectation, and
// the slot is worth holding for a straggler about to ripen instead (the
// anticipation of Figure 2). Returns nil when no task qualifies.
func (m *Monitor) BestVictim(now float64, running []*cluster.Task, maxCopies int) *cluster.Task {
	return m.scanVictims(now, running, maxCopies, nil)
}

// scanVictims is the victim rule, once: it returns the qualifying task
// with the largest estimated remaining time (the first of equals) and,
// when all is non-nil, appends every qualifying task to it.
func (m *Monitor) scanVictims(now float64, running []*cluster.Task, maxCopies int, all *[]*cluster.Task) *cluster.Task {
	var victim *cluster.Task
	var victimRem float64
	hist := m.history()
	for _, t := range running {
		if t == nil {
			continue
		}
		rem, ok := m.victimRemaining(now, t, maxCopies, hist)
		if !ok {
			continue
		}
		if all != nil {
			*all = append(*all, t)
		}
		if victim == nil || rem > victimRem {
			victim, victimRem = t, rem
		}
	}
	return victim
}

// victimRemaining is the victim rule for one task, with the job's history
// (Monitor.history) already resolved: the remaining work of the task's
// best observable copy, and whether the task qualifies — it runs, has an
// observable copy, is below the copy cap, and a fresh copy would beat it
// (remaining > t_new). Book.BestVictim holds the queued wants to it too.
func (m *Monitor) victimRemaining(now float64, t *cluster.Task, maxCopies int, hist *Monitor) (float64, bool) {
	if t.State != cluster.TaskRunning {
		return 0, false
	}
	live, best := m.observable(now, t)
	if live == 0 || live >= maxCopies || best == nil {
		return 0, false
	}
	rem := best.WorkRemaining(now)
	return rem, rem > estNew(hist, t.Phase)
}
