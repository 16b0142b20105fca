// Package workload synthesizes job traces with the distributional
// properties of the production workloads the paper replays (Section 7.1):
// Facebook's Hadoop cluster and Microsoft Bing's Dryad cluster.
//
// We do not have the proprietary traces, so the generator reproduces the
// properties the paper's analysis actually depends on (see DESIGN.md,
// substitution table):
//
//   - heavy-tailed job sizes — most jobs are small, most *work* is in
//     large jobs (the paper bins jobs at <50, 51-150, 151-500, >500
//     tasks);
//   - Pareto task durations with tail index 1 < beta < 2;
//   - Poisson arrivals scaled so offered load matches a target cluster
//     utilization, the x-axis of Figure 6;
//   - DAGs of 2-8 pipelined phases with intermediate data (alpha);
//   - recurring job families with stable intermediate-data ratios, which
//     is what makes alpha predictable (Section 6.3).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/stats"
)

// Profile captures one workload family's distributional parameters.
type Profile struct {
	// Name labels the profile in reports ("facebook", "bing", ...).
	Name string

	// JobSizeShape/JobSizeMin/JobSizeCap parameterize the Pareto job-size
	// (task-count) distribution. Smaller shape = heavier tail = bigger
	// spread between small and large jobs.
	JobSizeShape float64
	JobSizeMin   float64
	JobSizeCap   int

	// MeanTaskDur is the median of the lognormal per-job mean task
	// duration (seconds); MeanTaskDurSigma its log-space spread.
	MeanTaskDur      float64
	MeanTaskDurSigma float64

	// DAGLenWeights[i] is the relative probability of a job having i+1
	// phases.
	DAGLenWeights []float64

	// ReduceRatio is the task-count ratio of a downstream phase to its
	// upstream phase (reduce waves are smaller than map waves).
	ReduceRatio float64

	// TransferRatio scales a downstream phase's network transfer work
	// relative to its upstream phase's compute work.
	TransferRatio float64

	// Replicas is the number of machines holding each input block.
	Replicas int

	// RecurringFraction of jobs belong to recurring families (same
	// structure, similar data sizes); NumFamilies is the family count.
	RecurringFraction float64
	NumFamilies       int

	// BushyFraction of multi-phase jobs get a fan-in DAG (two parallel
	// chains joining) instead of a simple chain.
	BushyFraction float64

	// Burstiness: production arrivals are not smooth Poisson — the paper
	// notes "considerable variation" around the average utilization (at
	// 80% average, 53% of jobs arrive while the cluster is capacity
	// constrained). Arrivals follow a two-state Markov-modulated Poisson
	// process: rate is multiplied by BurstHigh in bursts and BurstLow in
	// lulls, with exponential state dwell times of mean BurstDwell (in
	// units of the profile's mean task duration, so bursts last several
	// job lifetimes). The long-run average rate still matches the
	// utilization target.
	BurstHigh  float64
	BurstLow   float64
	BurstDwell float64
}

// Facebook returns the Facebook-Hadoop-like profile: 30s median tasks,
// mostly short DAGs.
func Facebook() Profile {
	return Profile{
		Name:         "facebook",
		JobSizeShape: 1.0, JobSizeMin: 8, JobSizeCap: 4000,
		MeanTaskDur: 30, MeanTaskDurSigma: 0.5,
		DAGLenWeights:     []float64{0.25, 0.40, 0.15, 0.08, 0.05, 0.04, 0.02, 0.01},
		ReduceRatio:       0.4,
		TransferRatio:     0.35,
		Replicas:          3,
		RecurringFraction: 0.6, NumFamilies: 40,
		BushyFraction: 0.15,
		BurstHigh:     2.8, BurstLow: 0.3, BurstDwell: 20,
	}
}

// Bing returns the Bing-Dryad-like profile: bigger small/large spread
// (heavier size tail) and longer Scope DAGs, per Section 7.2's note that
// Bing gains are slightly higher due to the larger job-size spread.
func Bing() Profile {
	return Profile{
		Name:         "bing",
		JobSizeShape: 0.9, JobSizeMin: 6, JobSizeCap: 6000,
		MeanTaskDur: 25, MeanTaskDurSigma: 0.6,
		DAGLenWeights:     []float64{0.15, 0.30, 0.20, 0.12, 0.09, 0.07, 0.04, 0.03},
		ReduceRatio:       0.45,
		TransferRatio:     0.45,
		Replicas:          3,
		RecurringFraction: 0.5, NumFamilies: 30,
		BushyFraction: 0.25,
		BurstHigh:     3.0, BurstLow: 0.25, BurstDwell: 20,
	}
}

// Sparkify rescales a profile to interactive in-memory (Spark-like) task
// durations — sub-second to a few seconds — used by the decentralized
// prototype experiments (Section 7.1) and the centralized Spark prototype
// (Figure 12). Compute shrinks 30x but shuffled bytes do not, so relative
// transfer work rises: Spark jobs are communication-bound (Section 7.4
// notes "Spark jobs have fast in-memory map phases, thus making
// intermediate data communication the bottleneck"), which also pushes
// alpha above 1.
func Sparkify(p Profile) Profile {
	p.Name = p.Name + "-spark"
	p.MeanTaskDur = 1.0
	p.MeanTaskDurSigma = 0.6
	p.TransferRatio = 1.3
	// In-memory RDD partitions are unreplicated: one preferred machine
	// per input task, so locality actually contends (Figure 13).
	p.Replicas = 1
	return p
}

// ProfileByName returns the profile whose Name is name: Facebook, Bing,
// or the Sparkify variant of either ("facebook-spark", "bing-spark").
func ProfileByName(name string) (Profile, bool) {
	for _, p := range []Profile{Facebook(), Bing(), Sparkify(Facebook()), Sparkify(Bing())} {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Config drives one trace synthesis.
type Config struct {
	Profile Profile

	// NumJobs to generate.
	NumJobs int

	// TargetUtilization is offered load as a fraction of TotalSlots
	// (0.6-0.9 in the paper's experiments).
	TargetUtilization float64

	// TotalSlots is the cluster capacity the trace will run on.
	TotalSlots int

	// NumMachines is used to assign input replica locations.
	NumMachines int

	// Seed makes the trace reproducible.
	Seed int64
}

// Trace is a generated workload plus its summary statistics.
type Trace struct {
	Jobs []*cluster.Job

	// TotalWork is the sum of expected task durations across all jobs
	// (slot-seconds), before any speculation.
	TotalWork float64

	// Horizon is the time of the last arrival.
	Horizon float64

	// OfferedLoad is LoadOn(TotalSlots), set by Generate: a fraction of
	// the configured cluster, and so close to the target utilization.
	// ReadTrace leaves it 0, since a trace file carries no slot count.
	OfferedLoad float64
}

// LoadOn returns the trace's offered load as a fraction of a cluster of
// slots slots: TotalWork / (Horizon * slots).
func (tr *Trace) LoadOn(slots int) float64 {
	return tr.TotalWork / (tr.Horizon * float64(slots))
}

// Generate synthesizes a trace per the config.
func Generate(cfg Config) *Trace {
	if cfg.NumJobs <= 0 || cfg.TotalSlots <= 0 || cfg.NumMachines <= 0 {
		panic(fmt.Sprintf("workload: invalid config %+v", cfg))
	}
	if cfg.TargetUtilization <= 0 || cfg.TargetUtilization > 1.5 {
		panic(fmt.Sprintf("workload: utilization %v out of (0, 1.5]", cfg.TargetUtilization))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := cfg.Profile

	// Pre-build job skeletons to learn expected work per job, then lay
	// arrivals down as a Poisson process with rate matched to the target.
	jobs := make([]*cluster.Job, 0, cfg.NumJobs)
	var families []*shape // by family number; drawn by each family's first job
	if p.NumFamilies > 0 {
		families = make([]*shape, p.NumFamilies)
	}
	var totalWork float64
	for i := 0; i < cfg.NumJobs; i++ {
		j := genJob(rng, p, families, cluster.JobID(i), cfg.NumMachines)
		jobs = append(jobs, j)
		totalWork += jobWork(j)
	}
	meanWork := totalWork / float64(cfg.NumJobs)
	rate := cfg.TargetUtilization * float64(cfg.TotalSlots) / meanWork // jobs per second

	t := laydownArrivals(rng, p, jobs, rate)
	horizon := t
	if horizon <= 0 {
		horizon = 1
	}
	tr := &Trace{Jobs: jobs, TotalWork: totalWork, Horizon: horizon}
	tr.OfferedLoad = tr.LoadOn(cfg.TotalSlots)
	return tr
}

// laydownArrivals assigns arrival times as a two-state Markov-modulated
// Poisson process with long-run average rate `rate`, returning the last
// arrival time. With BurstHigh/BurstLow unset it degenerates to plain
// Poisson.
func laydownArrivals(rng *rand.Rand, p Profile, jobs []*cluster.Job, rate float64) float64 {
	hi, lo := p.BurstHigh, p.BurstLow
	if hi <= 0 || lo <= 0 {
		hi, lo = 1, 1
	}
	// Normalize so the time-average rate equals `rate` with equal
	// expected dwell in both states.
	norm := (hi + lo) / 2
	hi, lo = hi/norm, lo/norm
	dwell := p.BurstDwell * p.MeanTaskDur // seconds per state on average
	if dwell <= 0 {
		dwell = 1 / rate
	}

	t := 0.0
	stateHigh := rng.Float64() < 0.5
	stateEnd := t + rng.ExpFloat64()*dwell
	for _, j := range jobs {
		r := rate * lo
		if stateHigh {
			r = rate * hi
		}
		t += rng.ExpFloat64() / r
		for t > stateEnd {
			stateHigh = !stateHigh
			stateEnd += rng.ExpFloat64() * dwell
		}
		j.Arrival = t
	}
	return t
}

// jobWork returns the expected slot-seconds of a job.
func jobWork(j *cluster.Job) float64 {
	var w float64
	for _, p := range j.Phases {
		w += float64(len(p.Tasks)) * p.MeanTaskDuration
	}
	return w
}

// shape is a job's structure before its per-job noise. A recurring
// family's shape is drawn once per trace and replayed by every member.
type shape struct {
	name    string // the family's; empty for a non-recurring job
	size    int
	meanDur float64
	dagLen  int
	bushy   bool
	// steps are a recurring chain's per-phase duration factors in draw
	// order. Nil for a bushy DAG, which draws none, and for a
	// non-recurring job, whose chain draws them as it goes.
	steps []float64
}

// drawFamily draws family fam's shape. The stream is seeded by the
// family number, so the shape does not depend on which job draws it.
func drawFamily(p Profile, fam int) *shape {
	r := rand.New(rand.NewSource(int64(fam)*7919 + 17))
	s := drawShape(r, p)
	s.name = fmt.Sprintf("%s-fam-%d", p.Name, fam)
	if !s.bushy {
		s.steps = make([]float64, s.dagLen)
		for i := range s.steps {
			s.steps[i] = durStep(r)
		}
	}
	return &s
}

// drawShape draws size, mean task duration, DAG length and bushiness.
func drawShape(r *rand.Rand, p Profile) shape {
	size := int(stats.NewPareto(p.JobSizeMin, p.JobSizeShape).Sample(r))
	if size < 1 {
		size = 1
	}
	if p.JobSizeCap > 0 && size > p.JobSizeCap {
		size = p.JobSizeCap
	}
	s := shape{size: size}
	s.meanDur = p.MeanTaskDur * math.Exp(p.MeanTaskDurSigma*r.NormFloat64())
	s.dagLen = 1 + stats.WeightedChoice(r, p.DAGLenWeights)
	s.bushy = s.dagLen >= 3 && r.Float64() < p.BushyFraction
	return s
}

// durStep draws the factor a chain's task duration changes by from one
// phase to the next.
func durStep(r *rand.Rand) float64 { return 1 + 0.2*(2*r.Float64()-1) }

// genJob builds one job: size, DAG shape, durations, transfers, replicas.
// A recurring job takes its family's shape from families (indexed by
// family number), drawing it there if it is the family's first member,
// so members share structure regardless of draw order. Any other job
// draws its shape from rng.
func genJob(rng *rand.Rand, p Profile, families []*shape, id cluster.JobID, numMachines int) *cluster.Job {
	var sh shape
	if rng.Float64() < p.RecurringFraction && p.NumFamilies > 0 {
		fam := rng.Intn(p.NumFamilies)
		if families[fam] == nil {
			families[fam] = drawFamily(p, fam)
		}
		sh = *families[fam]
	} else {
		sh = drawShape(rng, p)
	}

	// Per-job noise so recurring jobs are similar, not identical.
	sizeNoise := 1 + 0.1*(2*rng.Float64()-1)
	durNoise := 1 + 0.1*(2*rng.Float64()-1)
	size := maxInt(1, int(float64(sh.size)*sizeNoise))
	meanDur := sh.meanDur * durNoise

	phases := buildDAG(rng, sh.steps, p, size, meanDur, sh.dagLen, sh.bushy)
	assignReplicas(rng, phases[0], p.Replicas, numMachines)
	if sh.bushy && len(phases) > 1 && len(phases[1].Deps) == 0 {
		assignReplicas(rng, phases[1], p.Replicas, numMachines)
	}
	return cluster.NewJob(id, sh.name, 0, phases)
}

// buildDAG constructs the phase graph. Chains dominate; bushy jobs run
// two parallel input chains that join at a final phase. A recurring
// job's chain replays its family's duration steps (drawn once per
// trace); any other job's chain draws each step from jobRng after that
// phase's transfer noise. Transfer noise always comes from jobRng, so
// recurring jobs have similar but not identical data sizes — the regime
// the alpha estimator is built for.
func buildDAG(jobRng *rand.Rand, steps []float64, p Profile, size int, meanDur float64, dagLen int, bushy bool) []*cluster.Phase {
	mkPhase := func(tasks int, dur float64) *cluster.Phase {
		return &cluster.Phase{MeanTaskDuration: dur, Tasks: cluster.NewTasks(maxInt(1, tasks))}
	}

	var phases []*cluster.Phase
	if !bushy || dagLen < 3 {
		// Chain: each phase feeds the next; downstream waves shrink.
		tasks := size
		dur := meanDur
		for i := 0; i < dagLen; i++ {
			ph := mkPhase(tasks, dur)
			if i > 0 {
				ph.Deps = []int{i - 1}
				up := phases[i-1]
				upWork := float64(len(up.Tasks)) * up.MeanTaskDuration
				ph.TransferWork = p.TransferRatio * upWork * (0.7 + 0.6*jobRng.Float64())
			}
			phases = append(phases, ph)
			tasks = maxInt(1, int(float64(tasks)*p.ReduceRatio))
			if steps != nil {
				dur *= steps[i]
			} else {
				dur *= durStep(jobRng)
			}
		}
		return phases
	}

	// Bushy: two roots (splitting the input wave), chains of roughly half
	// length, joined by a final phase.
	half := maxInt(1, size/2)
	left := mkPhase(half, meanDur)
	right := mkPhase(size-half, meanDur)
	phases = append(phases, left, right)
	prevL, prevR := 0, 1
	for len(phases) < dagLen-1 {
		src := phases[prevL]
		tasks := maxInt(1, int(float64(len(src.Tasks))*p.ReduceRatio))
		ph := mkPhase(tasks, meanDur)
		ph.Deps = []int{prevL}
		upWork := float64(len(src.Tasks)) * src.MeanTaskDuration
		ph.TransferWork = p.TransferRatio * upWork * (0.7 + 0.6*jobRng.Float64())
		phases = append(phases, ph)
		prevL = len(phases) - 1
		prevL, prevR = prevR, prevL // alternate sides
	}
	joinTasks := maxInt(1, int(float64(size)*p.ReduceRatio*p.ReduceRatio))
	join := mkPhase(joinTasks, meanDur)
	join.Deps = []int{prevL, prevR}
	var upWork float64
	for _, d := range join.Deps {
		upWork += float64(len(phases[d].Tasks)) * phases[d].MeanTaskDuration
	}
	join.TransferWork = p.TransferRatio * upWork * (0.7 + 0.6*jobRng.Float64())
	phases = append(phases, join)
	return phases
}

// assignReplicas gives each task of an input phase r distinct machines.
// The phase's lists share one backing array, each capped at its own end
// so an append to one cannot write into the next.
func assignReplicas(rng *rand.Rand, ph *cluster.Phase, r, numMachines int) {
	if r <= 0 || numMachines <= 0 {
		return
	}
	if r > numMachines {
		r = numMachines
	}
	reps := make([]cluster.MachineID, 0, r*len(ph.Tasks))
	for _, t := range ph.Tasks {
		start := len(reps)
		for len(reps)-start < r {
			m := cluster.MachineID(rng.Intn(numMachines))
			if !slices.Contains(reps[start:], m) {
				reps = append(reps, m)
			}
		}
		t.Replicas = reps[start:len(reps):len(reps)]
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SizeBin returns the paper's job-size bin label for a task count
// (Figures 7, 9, 12): "<50", "51-150", "151-500", ">500".
func SizeBin(tasks int) string {
	switch {
	case tasks <= 50:
		return "<50"
	case tasks <= 150:
		return "51-150"
	case tasks <= 500:
		return "151-500"
	default:
		return ">500"
	}
}

// SizeBins lists the bin labels in display order.
func SizeBins() []string { return []string{"<50", "51-150", "151-500", ">500"} }
