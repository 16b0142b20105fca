package cluster

import (
	"fmt"
	"math/rand"
)

// Resources is a resource vector, used both as a task's per-copy demand
// and as a machine slot's capacity. The zero value means "no declared
// demand" (fits any slot) on the demand side and "no declared capacity"
// on the capacity side; homogeneous configurations leave every vector
// zero and never reach the comparison code.
type Resources struct {
	CPU float64
	Mem float64
}

// IsZero reports whether no demand/capacity is declared.
func (r Resources) IsZero() bool { return r.CPU == 0 && r.Mem == 0 }

// FitsIn reports whether demand r fits in capacity c. A zero demand fits
// anything, including a zero capacity.
func (r Resources) FitsIn(c Resources) bool {
	return r.CPU <= c.CPU && r.Mem <= c.Mem
}

// MachineClass describes one hardware class in a heterogeneous cluster:
// how many machines of the class exist, how fast they run tasks, how many
// slots each machine has, and each slot's capacity vector.
type MachineClass struct {
	Name string
	// Count is the number of machines of this class (constructor input).
	Count int
	// Speed is the service-rate factor: a copy whose baseline-speed
	// service time is d runs in d/Speed wall-clock seconds here. 1.0 is
	// the homogeneous baseline.
	Speed float64
	// Slots is the per-machine slot count for this class.
	Slots int
	// Cap is the per-slot capacity; a task's demand must fit it for the
	// slot to be usable. The zero vector admits only zero-demand tasks —
	// which is every task in a homogeneous configuration.
	Cap Resources
}

// Machine is a worker host with a fixed number of task slots.
type Machine struct {
	ID    MachineID
	Slots int
	Free  int

	// Speed and Cap are copied from the machine's class, the two facts
	// placement and execution read.
	Speed float64
	Cap   Resources
}

// Fits reports whether a demand fits this machine's per-slot capacity.
// The zero-demand fast path keeps homogeneous configurations off the
// comparison entirely.
func (m *Machine) Fits(d Resources) bool {
	return d.IsZero() || d.FitsIn(m.Cap)
}

// Machines is the cluster's machine set with an O(1) index of machines
// that currently have free slots, so placement remains cheap even with
// tens of thousands of machines.
type Machines struct {
	All []*Machine

	// free is the set of machine IDs with Free > 0, as a slice for O(1)
	// random choice plus a position index for O(1) removal.
	free []MachineID
	pos  []int // pos[id] = index in free, or -1

	// freeSlots and totalSlots are cluster-wide slot counters maintained
	// by Acquire/Release, so FreeSlots/TotalSlots are O(1) — schedulers
	// read them on every dispatch pass.
	freeSlots  int
	totalSlots int

	// sampler backs RandomSubset.
	sampler SubsetSampler
}

// NewMachines builds n machines with slotsPer slots each, all free —
// the homogeneous constructor every existing configuration uses. It is
// exactly NewMachinesClassed with a single speed-1 class: same free-list
// order, same counters, so class support is a provable no-op here.
func NewMachines(n, slotsPer int) *Machines {
	if n <= 0 || slotsPer <= 0 {
		panic(fmt.Sprintf("cluster: invalid machine set %d x %d", n, slotsPer))
	}
	return NewMachinesClassed([]MachineClass{{Name: "uniform", Count: n, Speed: 1, Slots: slotsPer}})
}

// NewMachinesClassed builds a heterogeneous machine set from a class
// table. Machines are laid out class by class in table order (class 0's
// machines get the lowest IDs), each starting fully free, and the
// initial free list is ID order — identical to the homogeneous
// constructor's layout when the table has one class.
func NewMachinesClassed(classes []MachineClass) *Machines {
	n := 0
	for ci, c := range classes {
		if c.Count <= 0 || c.Slots <= 0 {
			panic(fmt.Sprintf("cluster: invalid machine class %d: %d x %d slots", ci, c.Count, c.Slots))
		}
		if c.Speed <= 0 {
			panic(fmt.Sprintf("cluster: machine class %d has non-positive speed %v", ci, c.Speed))
		}
		n += c.Count
	}
	if n == 0 {
		panic("cluster: empty machine class table")
	}
	ms := &Machines{
		All:     make([]*Machine, n),
		free:    make([]MachineID, n),
		pos:     make([]int, n),
		sampler: SubsetSampler{n: n, seen: make([]int64, n)},
	}
	i := 0
	for _, c := range classes {
		for k := 0; k < c.Count; k++ {
			ms.All[i] = &Machine{
				ID: MachineID(i), Slots: c.Slots, Free: c.Slots,
				Speed: c.Speed, Cap: c.Cap,
			}
			ms.free[i] = MachineID(i)
			ms.pos[i] = i
			i++
		}
		ms.freeSlots += c.Count * c.Slots
		ms.totalSlots += c.Count * c.Slots
	}
	return ms
}

// TotalSlots returns the cluster capacity in slots.
func (ms *Machines) TotalSlots() int { return ms.totalSlots }

// FreeSlots returns the number of currently free slots cluster-wide.
func (ms *Machines) FreeSlots() int { return ms.freeSlots }

// Get returns the machine with the given ID.
func (ms *Machines) Get(id MachineID) *Machine { return ms.All[id] }

// Acquire takes one slot on machine id. It panics if none is free —
// capacity violations are scheduler bugs and must fail loudly.
func (ms *Machines) Acquire(id MachineID) {
	m := ms.All[id]
	if m.Free <= 0 {
		panic(fmt.Sprintf("cluster: acquiring slot on full machine %d", id))
	}
	m.Free--
	ms.freeSlots--
	if m.Free == 0 {
		ms.removeFree(id)
	}
}

// AcquireFor takes one slot on machine id for a copy with the given
// demand. Beyond Acquire's capacity panic, it panics when the demand
// does not fit the machine's per-slot capacity — placing a task on a
// machine that cannot hold it is a scheduler bug, not a runtime
// condition. Zero demand fits everywhere, so homogeneous configurations
// never reach the comparison.
func (ms *Machines) AcquireFor(id MachineID, demand Resources) {
	if m := ms.All[id]; !m.Fits(demand) {
		panic(fmt.Sprintf("cluster: demand %+v does not fit machine %d (cap %+v)", demand, id, m.Cap))
	}
	ms.Acquire(id)
}

// Release returns one slot on machine id. It panics on over-release.
func (ms *Machines) Release(id MachineID) {
	m := ms.All[id]
	if m.Free >= m.Slots {
		panic(fmt.Sprintf("cluster: releasing slot on idle machine %d", id))
	}
	if m.Free == 0 {
		ms.addFree(id)
	}
	m.Free++
	ms.freeSlots++
}

func (ms *Machines) removeFree(id MachineID) {
	i := ms.pos[id]
	last := len(ms.free) - 1
	ms.free[i] = ms.free[last]
	ms.pos[ms.free[i]] = i
	ms.free = ms.free[:last]
	ms.pos[id] = -1
}

func (ms *Machines) addFree(id MachineID) {
	ms.pos[id] = len(ms.free)
	ms.free = append(ms.free, id)
}

// AnyFree reports whether any machine has a free slot.
func (ms *Machines) AnyFree() bool { return len(ms.free) > 0 }

// RandomFree returns a uniformly random machine with a free slot, or -1
// if the cluster is full.
func (ms *Machines) RandomFree(rng *rand.Rand) MachineID {
	if len(ms.free) == 0 {
		return -1
	}
	return ms.free[rng.Intn(len(ms.free))]
}

// RandomFreeFit returns a uniformly random machine with a free slot that
// fits the demand, or -1 if none exists. A zero demand takes the exact
// RandomFree code path — same single RNG draw over the same free list —
// which is what keeps homogeneous configurations byte-identical. scratch
// backs the fitting-candidate set on the demand path; nil is accepted
// (and allocates).
func (ms *Machines) RandomFreeFit(rng *rand.Rand, demand Resources, scratch []MachineID) MachineID {
	if demand.IsZero() {
		return ms.RandomFree(rng)
	}
	avail := scratch[:0]
	for _, id := range ms.free {
		if ms.All[id].Fits(demand) {
			avail = append(avail, id)
		}
	}
	if len(avail) == 0 {
		return -1
	}
	return avail[rng.Intn(len(avail))]
}

// FreeAmong returns a machine from candidates that has a free slot
// fitting the demand, choosing uniformly at random among them; -1 if
// none qualifies. With zero demand the fit check short-circuits, so the
// candidate set and the RNG draw are exactly the pre-demand ones.
// scratch is a caller-owned buffer for the free-candidate set, reused
// across calls so per-placement locality choice does not allocate; nil is
// accepted (and allocates).
func (ms *Machines) FreeAmong(rng *rand.Rand, demand Resources, candidates, scratch []MachineID) MachineID {
	avail := scratch[:0]
	for _, id := range candidates {
		if m := ms.All[id]; m.Free > 0 && m.Fits(demand) {
			avail = append(avail, id)
		}
	}
	if len(avail) == 0 {
		return -1
	}
	return avail[rng.Intn(len(avail))]
}

// PickForTask chooses a machine for a task: one of its replica machines
// if any has a free slot fitting the task's demand (data-local),
// otherwise a random fitting free machine (remote read). The bool
// reports locality. Returns -1 when no machine can hold the task right
// now. scratch is the caller's FreeAmong buffer.
func (ms *Machines) PickForTask(rng *rand.Rand, t *Task, scratch []MachineID) (MachineID, bool) {
	if len(t.Replicas) > 0 {
		if id := ms.FreeAmong(rng, t.Demand, t.Replicas, scratch); id >= 0 {
			return id, true
		}
	}
	id := ms.RandomFreeFit(rng, t.Demand, scratch)
	if id < 0 {
		return -1, false
	}
	return id, t.LocalOn(id)
}

// RandomSubset fills dst with k distinct machine IDs chosen uniformly
// from the whole cluster (free or busy) — the probe fan-out primitive in
// decentralized mode. If k >= len(All), every machine is returned. The
// returned slice aliases dst's backing array.
func (ms *Machines) RandomSubset(rng *rand.Rand, k int, dst []MachineID) []MachineID {
	return ms.sampler.RandomSubset(rng, k, dst)
}

// SubsetSampler draws uniform random machine subsets over a fixed machine
// count. Machines owns one (Machines.RandomSubset); NewSubsetSampler
// hands out further ones with private scratch.
//
// Sampling is Floyd's algorithm with an epoch-stamped duplicate marker
// instead of a per-call map, so a probe wave allocates nothing:
// seen[v] == epoch marks v as drawn in the current call. The RNG draw
// sequence is identical to the map-based version.
type SubsetSampler struct {
	n     int
	seen  []int64
	epoch int64
}

// NewSubsetSampler returns a sampler over this machine set. The machine
// count is fixed at creation (machine sets never grow mid-run).
func (ms *Machines) NewSubsetSampler() *SubsetSampler {
	return &SubsetSampler{n: len(ms.All), seen: make([]int64, len(ms.All))}
}

// RandomSubset fills dst with k distinct IDs out of n; see
// Machines.RandomSubset.
func (s *SubsetSampler) RandomSubset(rng *rand.Rand, k int, dst []MachineID) []MachineID {
	n := s.n
	dst = dst[:0]
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, MachineID(i))
		}
		return dst
	}
	s.epoch++
	// Floyd's algorithm: k distinct samples in O(k).
	for j := n - k; j < n; j++ {
		v := rng.Intn(j + 1)
		if s.seen[v] == s.epoch {
			v = j
		}
		s.seen[v] = s.epoch
		dst = append(dst, MachineID(v))
	}
	return dst
}
