package transport

import (
	"math/rand"
	"sync"

	"github.com/hopper-sim/hopper/internal/wire"
)

// This file is the chaos layer: a deterministic fault-decision engine
// (Injector). It only decides; the caller realizes each verdict. Its one
// consumer is the virtual-time failure suite in internal/live, whose
// connections ask Judge for every frame's fate and schedule deliveries on
// a simulation engine.

// Rates holds per-message fault probabilities; each is in [0, 1] and
// drawn independently per send.
type Rates struct {
	// Drop discards the message entirely.
	Drop float64
	// Dup delivers the message twice — the second copy after its own
	// delay draw, modeling a retransmit replay.
	Dup float64
	// Delay holds the message for an extra uniform draw from
	// [DelayMin, DelayMax] before delivery; delayed messages overtake and
	// are overtaken by others, so a nonzero rate also produces reorders.
	Delay float64
}

// FaultConfig configures an Injector.
type FaultConfig struct {
	// Seed keys the fault decision stream; the same seed and send
	// sequence produce the same verdicts.
	Seed int64
	// Default applies to every message type without a PerType override.
	Default Rates
	// PerType overrides Default for specific message types, so a scenario
	// can, say, drop only probes or duplicate only task hand-offs.
	PerType map[wire.MsgType]Rates
	// DelayMin/DelayMax bound the extra delivery delay, in seconds of
	// the consumer's clock (internal/live's virtual cluster uses engine
	// time).
	DelayMin float64
	DelayMax float64
}

// rates resolves the effective rates for one message type.
func (c *FaultConfig) rates(t wire.MsgType) Rates {
	if r, ok := c.PerType[t]; ok {
		return r
	}
	return c.Default
}

// Fate is the Injector's verdict for one message. Delivery count is 0
// (dropped), 1, or 2 (duplicated); each delivered copy carries its own
// extra delay in seconds (0 = deliver in order).
type Fate struct {
	Drop     bool
	Delay    float64
	Dup      bool
	DupDelay float64
}

// FaultStats counts injected faults; all fields are monotonic.
type FaultStats struct {
	Sent             int64 // messages judged
	Dropped          int64 // messages discarded by a Drop verdict
	Duplicated       int64 // messages delivered twice
	Delayed          int64 // messages (or duplicate copies) held back
	PartitionDrops   int64 // messages discarded because the link was partitioned
	PartitionsHealed int64 // Heal calls that ended an active partition
}

// Injector is a seeded fault-decision engine. It is safe for concurrent
// use; determinism holds for a fixed judge-call sequence (single-caller
// harnesses get exact replay, concurrent callers get seeded chaos).
type Injector struct {
	mu          sync.Mutex
	cfg         FaultConfig
	rng         *rand.Rand
	partitioned bool
	stats       FaultStats
}

// NewInjector builds an injector from the config.
func NewInjector(cfg FaultConfig) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (in *Injector) delay() float64 {
	if in.cfg.DelayMax <= in.cfg.DelayMin {
		return in.cfg.DelayMin
	}
	return in.cfg.DelayMin + in.rng.Float64()*(in.cfg.DelayMax-in.cfg.DelayMin)
}

// Judge decides the fate of one message about to be sent.
func (in *Injector) Judge(t wire.MsgType) Fate {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Sent++
	if in.partitioned {
		in.stats.PartitionDrops++
		return Fate{Drop: true}
	}
	r := in.cfg.rates(t)
	if r.Drop > 0 && in.rng.Float64() < r.Drop {
		in.stats.Dropped++
		return Fate{Drop: true}
	}
	var f Fate
	if r.Delay > 0 && in.rng.Float64() < r.Delay {
		f.Delay = in.delay()
		in.stats.Delayed++
	}
	if r.Dup > 0 && in.rng.Float64() < r.Dup {
		f.Dup = true
		f.DupDelay = in.delay()
		in.stats.Duplicated++
		if f.DupDelay > 0 {
			in.stats.Delayed++
		}
	}
	return f
}

// Partition starts dropping every message until Heal — a whole-link
// partition. Idempotent.
func (in *Injector) Partition() {
	in.mu.Lock()
	in.partitioned = true
	in.mu.Unlock()
}

// Heal ends an active partition. A no-op when none is active.
func (in *Injector) Heal() {
	in.mu.Lock()
	if in.partitioned {
		in.partitioned = false
		in.stats.PartitionsHealed++
	}
	in.mu.Unlock()
}

// Partitioned reports whether the link is currently partitioned.
func (in *Injector) Partitioned() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partitioned
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() FaultStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
