package protocol

import (
	"github.com/hopper-sim/hopper/internal/cluster"
)

// ProbePolicy chooses which workers receive a task's reservation
// requests beyond its replica-locality preferences. The scheduler core
// consults it once per task per probe wave; implementations may keep
// per-scheduler state (they are owned by exactly one Sched and called
// only under its serialization).
//
// The contract mirrors the rest of the core layer: deterministic given
// the env's RNG state and the observation history — no wall-clock reads,
// no goroutines, no map-iteration order dependence — so simulator runs
// stay replayable and the dispatch golden can pin a policy's exact
// decision sequence.
type ProbePolicy interface {
	// Targets appends up to n probe targets for task t to dst and
	// returns the extended slice. Implementations may return fewer than
	// n only if the cluster itself has fewer workers.
	Targets(env *SchedEnv, t *cluster.Task, n int, dst []cluster.MachineID) []cluster.MachineID

	// ObserveLoad feeds the policy one worker's piggybacked load report:
	// free slots and per-slot capacity as of the adapter-stamped send
	// time. Policies that do not aim by load ignore it.
	ObserveLoad(w cluster.MachineID, free int, cap cluster.Resources, now float64)
}

// RandomSubsetPolicy is the paper's probe-target rule: a uniform random
// subset of all workers (Section 6.1). It is the extraction of the
// pre-policy inline code and consumes the identical RNG draw sequence —
// one RandomWorkers call per task for the non-replica remainder — which
// is what keeps the dispatch golden byte-identical.
type RandomSubsetPolicy struct {
	scratch []cluster.MachineID
}

// Targets implements ProbePolicy with one uniform subset draw.
func (p *RandomSubsetPolicy) Targets(env *SchedEnv, _ *cluster.Task, n int, dst []cluster.MachineID) []cluster.MachineID {
	p.scratch = env.RandomWorkers(env.Rand, n, p.scratch)
	return append(dst, p.scratch...)
}

// ObserveLoad implements ProbePolicy; random probing ignores load.
func (p *RandomSubsetPolicy) ObserveLoad(cluster.MachineID, int, cluster.Resources, float64) {}

// loadCacheEntry is one worker's cached load view.
type loadCacheEntry struct {
	w    cluster.MachineID
	free int
	cap  cluster.Resources
	at   float64 // adapter time of the report this entry reflects (eviction order)
}

// LoadCachePolicy aims probes with a stale-tolerant cached per-worker
// load view, in the style of Dodoor's cached decentralized scheduling:
// the free-slot count piggybacked on every offer feeds the cache, probes
// go to the cached least-loaded workers that fit the task's demand, and
// cache misses (cold or exhausted cache) fall back to uniform random
// probing.
//
// Staleness tolerance is the point, not a defect: the cache is only ever
// a hint about where free slots probably are, and the late-binding offer
// protocol downstream corrects any error — a probe aimed at a worker
// that filled up meanwhile just waits in its queue like a random probe
// would. Entries do not expire by age. Workers offer only when probed
// (a reservation is dropped on NoDemand, never polled), so reports are
// as sparse as placements and a clock short enough to mean "fresh"
// would empty the cache between them. What bounds an entry's error
// instead is the optimistic decrement: each probe aimed by an entry
// takes one cached slot from it, so a report of f free slots attracts
// at most f probes before a fresher one must replace it — which also
// spreads one probe wave instead of dog-piling the emptiest worker.
//
// Determinism: entries live in a bounded dense slice scanned in
// insertion order (no map iteration), selection is by (free desc, worker
// id asc), and the random fallback uses the same env.RandomWorkers
// primitive as RandomSubsetPolicy.
type LoadCachePolicy struct {
	// MaxEntries bounds the cache; when full, the stalest entry is
	// evicted. Defaults to loadCacheDefaultSize via NewLoadCachePolicy.
	MaxEntries int

	idx     map[cluster.MachineID]int // worker -> position in entries
	entries []loadCacheEntry

	scratch []cluster.MachineID
	// CacheHits/CacheMisses count probe targets aimed by the cache vs
	// filled by the random fallback, the policy's overhead diagnostic.
	CacheHits   int64
	CacheMisses int64
}

// loadCacheDefaultSize bounds the cached worker set. Probes and offers
// concentrate on a scheduler's recent working set of workers, so a few
// hundred entries cover it even in 10k-machine clusters.
const loadCacheDefaultSize = 512

// NewLoadCachePolicy builds an empty load-cache policy. The argument was
// the age, in seconds, past which an entry stopped aiming probes; there
// is no age rule any more (see LoadCachePolicy) and it is ignored. The
// parameter stays because the benchmark's layer driver passes one.
func NewLoadCachePolicy(_ float64) *LoadCachePolicy {
	return &LoadCachePolicy{
		MaxEntries: loadCacheDefaultSize,
		idx:        make(map[cluster.MachineID]int),
	}
}

// ObserveLoad implements ProbePolicy: upsert the worker's entry,
// evicting the stalest entry when the cache is full.
func (p *LoadCachePolicy) ObserveLoad(w cluster.MachineID, free int, cap cluster.Resources, now float64) {
	if i, ok := p.idx[w]; ok {
		p.entries[i].free = free
		p.entries[i].cap = cap
		p.entries[i].at = now
		return
	}
	if p.MaxEntries > 0 && len(p.entries) >= p.MaxEntries {
		evict := 0
		for i := 1; i < len(p.entries); i++ {
			if p.entries[i].at < p.entries[evict].at {
				evict = i
			}
		}
		delete(p.idx, p.entries[evict].w)
		p.entries[evict] = loadCacheEntry{w: w, free: free, cap: cap, at: now}
		p.idx[w] = evict
		return
	}
	p.idx[w] = len(p.entries)
	p.entries = append(p.entries, loadCacheEntry{w: w, free: free, cap: cap, at: now})
}

// usable reports whether an entry may aim a probe for demand d: free
// slots cached, and the demand fits its slots.
func (e *loadCacheEntry) usable(d cluster.Resources) bool {
	return e.free > 0 && (d.IsZero() || d.FitsIn(e.cap))
}

// Targets implements ProbePolicy: cached least-loaded fitting workers
// first, uniform random fill for the remainder.
func (p *LoadCachePolicy) Targets(env *SchedEnv, t *cluster.Task, n int, dst []cluster.MachineID) []cluster.MachineID {
	picked := 0
	for ; picked < n; picked++ {
		best := -1
		for i := range p.entries {
			e := &p.entries[i]
			if !e.usable(t.Demand) {
				continue
			}
			if best < 0 || e.free > p.entries[best].free ||
				(e.free == p.entries[best].free && e.w < p.entries[best].w) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Optimistic decrement: this wave's later picks (and the next
		// wave, until a fresher report lands) see one fewer cached slot.
		p.entries[best].free--
		dst = append(dst, p.entries[best].w)
		p.CacheHits++
	}
	if remaining := n - picked; remaining > 0 {
		p.scratch = env.RandomWorkers(env.Rand, remaining, p.scratch)
		dst = append(dst, p.scratch...)
		p.CacheMisses += int64(remaining)
	}
	return dst
}
