// Package protocol contains the decentralized Hopper protocol state
// machines of Pseudocode 2 and 3 — scheduler-side job state (virtual
// sizes, occupied accounting, piggybacked smallest-unsatisfied job,
// speculation queues) and worker-side round negotiation (reservation
// aggregates, refusal threshold, tried sets) — as transport- and
// clock-agnostic cores.
//
// A core never talks to a network, an event engine, or the wall clock.
// Its inputs are method calls (one per protocol message or timer tick)
// plus an injected clock and RNG; its outputs are return values (for
// request/response pairs like offer handling) and ordered action lists
// (for one-way sends and timer management) that the embedding adapter
// executes. Two adapters drive the same cores:
//
//   - internal/decentral feeds them from the discrete-event simulator:
//     actions become engine posts under the message-latency model, and
//     placement goes through cluster.Executor. The extraction is
//     behavior-preserving — the experiments dispatch golden pins the
//     exact decision sequence of the pre-extraction tree.
//   - internal/live feeds them from TCP connections and
//     real timers: actions become wire frames, placement becomes an
//     emulated slot hold on a worker.
//
// Neither adapter holds a pointer into a core. A worker core numbers its
// offers; the number rides the offer and its reply (WAction.Seq, the
// wire Seq field, the simulator's pooled message) and Worker.OnReply
// finds the negotiation round by it. What an unanswered offer means —
// timed out, its scheduler gone — is decided in the core as well
// (Worker.ExpireOffers, Worker.DropSched); an adapter supplies the clock.
//
// What makes simulator figures transferable to the deployed system is
// that both adapters run this one core: the wire bridge in internal/live
// is pinned field by field (TestBridgeRoundTrip), and the shipped live
// nodes by their own frame-log golden. The two adapters do not hand out
// one assignment sequence — their RNG streams and message timing differ.
package protocol

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/speculation"
)

// SchedID identifies a scheduler within one cluster (dense, 0-based).
type SchedID int

// Mode selects the scheduling protocol.
type Mode int

// The three decentralized systems evaluated in the paper, plus the
// load-cached probing extension.
const (
	// ModeHopper is decentralized Hopper (Section 5).
	ModeHopper Mode = iota
	// ModeSparrow is stock Sparrow: FIFO worker queues, batched
	// power-of-two probes, best-effort speculation.
	ModeSparrow
	// ModeSparrowSRPT is the paper's aggressive baseline: Sparrow whose
	// workers pick the job with the fewest unfinished tasks.
	ModeSparrowSRPT
	// ModeLoadCache is decentralized Hopper with Dodoor-style load-cached
	// probe aiming: the worker-side protocol (Pseudocode 3) and
	// scheduler-side capacity rules are Hopper's, but probes are aimed by
	// a stale-tolerant cached per-worker load view (LoadCachePolicy)
	// instead of a uniform random subset, and the default probe ratio
	// drops to 2 because aimed probes need less fan-out.
	ModeLoadCache
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHopper:
		return "Hopper-D"
	case ModeSparrow:
		return "Sparrow"
	case ModeSparrowSRPT:
		return "Sparrow-SRPT"
	case ModeLoadCache:
		return "Hopper-LC"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// hopperFamily reports whether the mode runs the Hopper scheduler- and
// worker-side rules (virtual sizes, refusable offers, fairness floor) —
// everything but probe aiming is shared between Hopper-D and Hopper-LC.
func (m Mode) hopperFamily() bool { return m == ModeHopper || m == ModeLoadCache }

// Config holds the protocol parameters shared by every adapter. Message
// timing (latency, processing delay, scan periods) belongs to the
// adapters: the cores never sleep or schedule.
type Config struct {
	// Mode selects the protocol: Hopper-D (Section 5), or one of the
	// baselines Section 7 compares it with.
	Mode Mode

	// NumSchedulers is the number of independent job schedulers in the
	// cluster; a scheduler estimates the cluster-wide job count for the
	// fairness floor as (its own active jobs) x NumSchedulers, accurate
	// under round-robin admission. Default 10, the prototype's count
	// (Section 7.1).
	NumSchedulers int

	// ProbeRatio is reservations per task (d). Hopper's default is 4
	// (Figure 5a: the gain plateaus from d = 3); Sparrow's is 2.
	// Fractional ratios are realized in expectation.
	ProbeRatio float64

	// RefusalThreshold is how many refusals a worker collects before
	// concluding (Pseudocode 3). Default 2 (Figure 5b: two to three
	// refusals suffice).
	RefusalThreshold int

	// Spec is the parameter table both planes share (speculation.Config:
	// straggler detection, the β prior, ε), each field with its source.
	// One table is ours: the planes cannot drift apart. ε is applied
	// through the virtual-size floor (1−ε)·slots/n, in the Hopper modes
	// only.
	Spec speculation.Config

	// RetryJitter spreads each armed retry delay uniformly over
	// [d*(1-RetryJitter), d*(1+RetryJitter)] so workers that lost their
	// reservations in the same event (a partition, a scheduler crash) do
	// not retry in lockstep. Zero disables jitter. Ours: the paper does
	// not model failures. WithDefaults leaves it zero — the simulator's
	// dispatch golden pins exact retry timing — and the live adapters
	// enable it (see live.defaultRetryJitter).
	RetryJitter float64
}

// DefaultCheckInterval is the decentralized adapters' speculation scan
// period in seconds: decentral.Config.CheckInterval's and
// live.SchedulerConfig.CheckInterval's default. Ours: the paper states no
// scan period; the centralized chassis scans every 1.0 s
// (scheduler.Config), and each plane's goldens were recorded with its own
// value, so unifying them is a behaviour change with a regen.
const DefaultCheckInterval = 0.25

// WithDefaults fills zero fields with the paper's defaults for the mode.
func (c Config) WithDefaults() Config {
	if c.NumSchedulers == 0 {
		c.NumSchedulers = 10
	}
	if c.ProbeRatio == 0 {
		if c.Mode == ModeHopper {
			c.ProbeRatio = 4
		} else {
			// Sparrow's power-of-two, and ModeLoadCache: aimed probes
			// need less fan-out than Hopper-D's random 4.
			c.ProbeRatio = 2
		}
	}
	if c.RefusalThreshold == 0 {
		c.RefusalThreshold = 2
	}
	c.Spec = c.Spec.WithDefaults()
	return c
}

// Stats aggregates protocol counters across the cores of one cluster
// node set. Adapters share one Stats among the cores they own.
type Stats struct {
	// RoundsStarted / RoundsPlaced count worker negotiation rounds and
	// the subset that placed a task.
	RoundsStarted int64
	RoundsPlaced  int64

	// OccupancyLeaks counts jobs that finished with nonzero occupancy —
	// always a protocol accounting bug.
	OccupancyLeaks int64

	// DoubleWakeups counts duplicate PhaseRunnable deliveries observed by
	// scheduler cores, and DoubleWakeupTasks the tasks those duplicates
	// would have re-enqueued into pendingFresh (phantom fresh demand).
	// The cluster's unlock planner delivers exactly-once and asserts its
	// own half (MarkRunnable panics), so a nonzero count means an adapter
	// path delivered a wakeup to the core outside the planner — surfaced
	// here rather than silently absorbed.
	DoubleWakeups     int64
	DoubleWakeupTasks int64

	// Requeues counts tasks pushed back to the fresh queue after their
	// worker (or an individual copy) was lost — the recovery path shared
	// by worker crashes, copy watchdog expiries, and machine churn.
	Requeues int64

	// OfferTimeouts counts offers a worker abandoned because no reply
	// arrived in time (dropped offer or dropped reply), and StaleAssigns
	// the task hand-offs rejected because they answered an offer already
	// abandoned — both are fault-recovery events, not bugs.
	OfferTimeouts int64
	StaleAssigns  int64

	// WatchdogExpiries counts in-flight copies a scheduler gave up on
	// because no completion report arrived within the copy's duration plus
	// grace (lost assign, lost report, or a stalled worker).
	WatchdogExpiries int64

	// ReconciledCopies / ReconciledReservations count scheduler state
	// rebuilt from worker re-registration after a restart: running copies
	// re-attached without re-placement, and reservation entries workers
	// reported still holding.
	ReconciledCopies       int64
	ReconciledReservations int64

	// SilentDemand counts tasks handed out for a job whose last answer
	// to an offer was NoDemand and which has sent no probe since: demand
	// that appeared unannounced. Workers drop their reservation on
	// NoDemand, so such demand can strand — always a scheduler-core bug
	// (see Sched.HandleOffer).
	SilentDemand int64
}

// Reply is a scheduler's answer to a worker's offer or task pull. It is
// value-transportable: every field crosses the wire except Task, which
// in-process adapters use to hand the actual task object to placement
// (wire adapters reconstruct placement from Phase/TaskIndex instead).
type Reply struct {
	// HasTask reports a task was handed over; Job/Phase/TaskIndex
	// identify it and Spec marks a speculative copy.
	HasTask   bool
	Task      *cluster.Task // in-process only; nil across a wire
	Job       cluster.JobID
	Phase     int
	TaskIndex int
	Spec      bool

	// From is the replying scheduler.
	From SchedID

	// JobDone tells the worker to purge this job's reservations.
	JobDone bool
	// Refused means a refusable offer was declined (job satisfied).
	Refused bool
	// NoDemand means the job has nothing to run right now at all.
	NoDemand bool

	// HasUnsat + fields piggyback the replying scheduler's smallest
	// unsatisfied job on refusals (Pseudocode 2).
	HasUnsat bool
	UnsatJob cluster.JobID
	UnsatVS  float64

	// VS / RemTask piggyback the job's updated ordering metadata.
	VS      float64
	RemTask int
}

// Probe is a scheduler-core output: send one reservation request to a
// worker, carrying the job's ordering metadata and the task's resource
// demand (zero in homogeneous configurations).
type Probe struct {
	Worker cluster.MachineID
	Job    cluster.JobID
	VS     float64
	Rem    int
	Demand cluster.Resources
}

// WActionKind discriminates worker-core output actions.
type WActionKind uint8

// Worker-core actions, executed by the adapter in list order.
const (
	// WSendOffer: transmit an offer (Hopper) or task pull (Sparrow) to
	// Sched for Job. Seq numbers the offer, from 1 per worker core; the
	// adapter hands it back with the reply (Worker.OnReply).
	WSendOffer WActionKind = iota
	// WArmRetry: schedule a Kick after Delay on the adapter's clock.
	WArmRetry
	// WCancelRetry: cancel the armed retry, if any.
	WCancelRetry
)

// WAction is one worker-core output.
type WAction struct {
	Kind      WActionKind
	Sched     SchedID
	Job       cluster.JobID
	Refusable bool
	GetTask   bool // Sparrow pull instead of a Hopper offer
	Seq       uint64
	Delay     float64
}
