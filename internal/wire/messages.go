package wire

import "fmt"

// MaxReplicaTasks bounds the per-phase replica group count the decoder
// will allocate for — far above any real workload, far below what a
// maliciously huge NumTasks could otherwise amplify into.
const MaxReplicaTasks = 1 << 20

// PhaseSpec describes one DAG phase.
type PhaseSpec struct {
	Deps         []uint16
	MeanDur      float64
	TransferWork float64
	NumTasks     uint32

	// DemandCPU/DemandMem are the per-copy resource demand of this
	// phase's tasks (zero on homogeneous clusters: every slot fits).
	DemandCPU float64
	DemandMem float64

	// Replicas optionally lists, per task, the worker IDs holding the
	// task's input data (locality preferences for probe targeting). When
	// non-nil, the codec normalizes it to exactly NumTasks entries on
	// encode (missing entries encode empty, surplus entries are dropped)
	// and each entry is capped at 255 IDs — probe targeting consumes at
	// most a handful, so longer hint lists carry no information. Decoded
	// groups share one backing array, each capped at its own end.
	Replicas [][]uint32
}

// SubmitJob is a client's job submission to a scheduler.
type SubmitJob struct {
	JobID  uint64
	Name   string
	Phases []PhaseSpec
}

// Type implements Message.
func (*SubmitJob) Type() MsgType { return TSubmitJob }

func (m *SubmitJob) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putString(b, m.Name)
	b = putU16(b, uint16(len(m.Phases)))
	for _, p := range m.Phases {
		b = putU16(b, uint16(len(p.Deps)))
		for _, d := range p.Deps {
			b = putU16(b, d)
		}
		b = putF64(b, p.MeanDur)
		b = putF64(b, p.TransferWork)
		b = putU32(b, p.NumTasks)
		b = putF64(b, p.DemandCPU)
		b = putF64(b, p.DemandMem)
		b = putBool(b, p.Replicas != nil)
		if p.Replicas != nil {
			// Exactly NumTasks groups on the wire, whatever the caller
			// built: a shorter or longer Replicas slice must not desync
			// the payload (the decoder reads NumTasks groups).
			for i := 0; i < int(p.NumTasks); i++ {
				var reps []uint32
				if i < len(p.Replicas) {
					reps = p.Replicas[i]
				}
				if len(reps) > 255 {
					reps = reps[:255]
				}
				b = putU8(b, uint8(len(reps)))
				for _, r := range reps {
					b = putU32(b, r)
				}
			}
		}
	}
	return b
}

// decode fills m, reusing the storage a released submission left in it
// (Release keeps Phases' backing, and each phase there keeps its Deps and
// its Replicas): a recycled struct decodes exactly as a fresh one does,
// and costs no allocation when its storage is large enough.
func (m *SubmitJob) decode(r *reader) error {
	m.JobID = r.u64()
	m.Name = r.string()
	n := int(r.u16())
	switch {
	case n == 0:
		m.Phases = nil
	case cap(m.Phases) >= n:
		m.Phases = m.Phases[:n]
	default:
		m.Phases = make([]PhaseSpec, n)
	}
	for i := range m.Phases {
		p := &m.Phases[i]
		nd := int(r.u16())
		var deps []uint16
		if nd > 0 {
			deps = p.Deps[:0]
			if cap(deps) < nd {
				deps = make([]uint16, 0, nd)
			}
			for k := 0; k < nd; k++ {
				deps = append(deps, r.u16())
			}
		}
		prev := p.Replicas
		*p = PhaseSpec{
			Deps:         deps,
			MeanDur:      r.f64(),
			TransferWork: r.f64(),
			NumTasks:     r.u32(),
			DemandCPU:    r.f64(),
			DemandMem:    r.f64(),
		}
		if r.bool() {
			// The group count is bounded up front: zero-length groups cost
			// one payload byte but a 24-byte slice header each, so a 16MB
			// frame could otherwise force hundreds of MB of headers.
			if p.NumTasks > MaxReplicaTasks {
				return fmt.Errorf("wire: %d replica groups exceed %d", p.NumTasks, MaxReplicaTasks)
			}
			var err error
			if p.Replicas, err = r.replicaGroups(int(p.NumTasks), prev); err != nil {
				return err
			}
		}
	}
	return r.err
}

// replicaGroups reads a phase's n replica groups into one backing array,
// each group capped at its own end so an append to one reallocates
// instead of writing into its neighbour; an empty group stays nil. A
// first pass walks the groups without keeping them, so nothing is sized
// until the payload has been shown to hold all n: a short payload fails
// before any allocation, and a phase costs at most two allocations (the
// ids and the group headers) whatever its task count.
//
// The headers always have room for one slot past the n groups, and the
// last slot of their capacity holds the whole backing: that is how the
// storage of a released submission's phase, passed in as prev, comes
// back to a later decode (len hides the slot from everything else).
func (r *reader) replicaGroups(n int, prev [][]uint32) ([][]uint32, error) {
	start, ids := r.off, 0
	for k := 0; k < n; k++ {
		nr := int(r.u8())
		r.skip(4 * nr)
		ids += nr
	}
	if r.err != nil {
		return nil, r.err
	}
	r.off = start
	var backing []uint32
	if c := cap(prev); c > 0 {
		backing = prev[:c][c-1][:0]
	}
	groups := prev[:cap(prev)]
	clear(groups)
	if len(groups) <= n {
		groups = make([][]uint32, n+1)
	}
	if cap(backing) < ids {
		backing = make([]uint32, 0, ids)
	}
	for k := range groups[:n] {
		nr := int(r.u8())
		if nr == 0 {
			continue
		}
		from := len(backing)
		for q := 0; q < nr; q++ {
			backing = append(backing, r.u32())
		}
		groups[k] = backing[from:len(backing):len(backing)]
	}
	groups[len(groups)-1] = backing[:0]
	return groups[:n], r.err
}

// JobComplete reports a finished job to the submitting client. A
// scheduler draining at shutdown fails its pending jobs with Aborted set
// and an Error string instead of silently dropping the connection.
type JobComplete struct {
	JobID      uint64
	Completion float64 // seconds from submission
	TasksRun   uint32
	SpecCopies uint32
	Aborted    bool
	Error      string
}

// Type implements Message.
func (*JobComplete) Type() MsgType { return TJobComplete }

func (m *JobComplete) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putF64(b, m.Completion)
	b = putU32(b, m.TasksRun)
	b = putU32(b, m.SpecCopies)
	b = putBool(b, m.Aborted)
	b = putString(b, m.Error)
	return b
}

func (m *JobComplete) decode(r *reader) error {
	m.JobID = r.u64()
	m.Completion = r.f64()
	m.TasksRun = r.u32()
	m.SpecCopies = r.u32()
	m.Aborted = r.bool()
	m.Error = r.string()
	return r.err
}

// Reserve is a probe: a reservation request for a job at a worker,
// carrying the ordering metadata workers queue (virtual size, remaining
// tasks).
type Reserve struct {
	JobID       uint64
	SchedulerID uint32
	VirtualSize float64
	RemTasks    uint32
	// DemandCPU/DemandMem carry the probed task's per-copy resource
	// demand so the worker can skip reservations that cannot fit its
	// slots (zero on homogeneous clusters).
	DemandCPU float64
	DemandMem float64
}

// Type implements Message.
func (*Reserve) Type() MsgType { return TReserve }

func (m *Reserve) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putU32(b, m.SchedulerID)
	b = putF64(b, m.VirtualSize)
	b = putU32(b, m.RemTasks)
	b = putF64(b, m.DemandCPU)
	b = putF64(b, m.DemandMem)
	return b
}

func (m *Reserve) decode(r *reader) error {
	m.JobID = r.u64()
	m.SchedulerID = r.u32()
	m.VirtualSize = r.f64()
	m.RemTasks = r.u32()
	m.DemandCPU = r.f64()
	m.DemandMem = r.f64()
	return r.err
}

// Offer is a worker's response offering a slot to a job (Pseudocode 3):
// refusable during the probing phase, non-refusable after the refusal
// threshold. GetTask marks a Sparrow-baseline task pull instead of a
// Hopper offer (the reservation is consumed either way).
type Offer struct {
	JobID     uint64
	WorkerID  uint32
	Seq       uint64 // correlates the scheduler's reply to this offer
	Refusable bool
	GetTask   bool
	// FreeSlots piggybacks the worker's free-slot count at send time,
	// feeding the scheduler's load-cached probe policy (ignored under
	// random probing).
	FreeSlots uint32
}

// Type implements Message.
func (*Offer) Type() MsgType { return TOffer }

func (m *Offer) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putU32(b, m.WorkerID)
	b = putU64(b, m.Seq)
	b = putBool(b, m.Refusable)
	b = putBool(b, m.GetTask)
	b = putU32(b, m.FreeSlots)
	return b
}

func (m *Offer) decode(r *reader) error {
	m.JobID = r.u64()
	m.WorkerID = r.u32()
	m.Seq = r.u64()
	m.Refusable = r.bool()
	m.GetTask = r.bool()
	m.FreeSlots = r.u32()
	return r.err
}

// Assign hands a task to the offering worker (Pseudocode 2's Accept).
type Assign struct {
	JobID       uint64
	Seq         uint64
	Phase       uint16
	TaskIndex   uint32
	Speculative bool
	Duration    float64 // service time the worker should emulate
	// VirtualSize piggybacks the job's updated ordering metadata.
	VirtualSize float64
	RemTasks    uint32
}

// Type implements Message.
func (*Assign) Type() MsgType { return TAssign }

func (m *Assign) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putU64(b, m.Seq)
	b = putU16(b, m.Phase)
	b = putU32(b, m.TaskIndex)
	b = putBool(b, m.Speculative)
	b = putF64(b, m.Duration)
	b = putF64(b, m.VirtualSize)
	b = putU32(b, m.RemTasks)
	return b
}

func (m *Assign) decode(r *reader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	m.Phase = r.u16()
	m.TaskIndex = r.u32()
	m.Speculative = r.bool()
	m.Duration = r.f64()
	m.VirtualSize = r.f64()
	m.RemTasks = r.u32()
	return r.err
}

// Refuse declines a refusable offer (the job is at its virtual size),
// piggybacking the scheduler's smallest unsatisfied job if any
// (Pseudocode 2).
type Refuse struct {
	JobID uint64
	Seq   uint64
	// NoDemand reports the job has nothing at all to run right now.
	NoDemand bool
	// HasUnsat + fields describe the smallest unsatisfied job.
	HasUnsat    bool
	UnsatJobID  uint64
	UnsatVS     float64
	VirtualSize float64 // updated ordering metadata for JobID
	RemTasks    uint32
}

// Type implements Message.
func (*Refuse) Type() MsgType { return TRefuse }

func (m *Refuse) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putU64(b, m.Seq)
	b = putBool(b, m.NoDemand)
	b = putBool(b, m.HasUnsat)
	b = putU64(b, m.UnsatJobID)
	b = putF64(b, m.UnsatVS)
	b = putF64(b, m.VirtualSize)
	b = putU32(b, m.RemTasks)
	return b
}

func (m *Refuse) decode(r *reader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	m.NoDemand = r.bool()
	m.HasUnsat = r.bool()
	m.UnsatJobID = r.u64()
	m.UnsatVS = r.f64()
	m.VirtualSize = r.f64()
	m.RemTasks = r.u32()
	return r.err
}

// NoTask answers a non-refusable offer when the job has nothing to run
// (or has finished, in which case the worker purges its reservations).
// Like every reply it piggybacks the job's updated ordering metadata —
// dropping it here would leave live workers ranking the job by stale
// virtual sizes where the simulator refreshes them.
type NoTask struct {
	JobID       uint64
	Seq         uint64
	JobDone     bool
	NoDemand    bool
	VirtualSize float64
	RemTasks    uint32
}

// Type implements Message.
func (*NoTask) Type() MsgType { return TNoTask }

func (m *NoTask) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putU64(b, m.Seq)
	b = putBool(b, m.JobDone)
	b = putBool(b, m.NoDemand)
	b = putF64(b, m.VirtualSize)
	b = putU32(b, m.RemTasks)
	return b
}

func (m *NoTask) decode(r *reader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	m.JobDone = r.bool()
	m.NoDemand = r.bool()
	m.VirtualSize = r.f64()
	m.RemTasks = r.u32()
	return r.err
}

// TaskDone reports a finished (or killed/rejected) copy to the job's
// scheduler. Seq echoes the Assign's sequence number so the scheduler
// can settle the exact copy.
type TaskDone struct {
	JobID     uint64
	Seq       uint64
	Phase     uint16
	TaskIndex uint32
	WorkerID  uint32
	Duration  float64
	Killed    bool
}

// Type implements Message.
func (*TaskDone) Type() MsgType { return TTaskDone }

func (m *TaskDone) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	b = putU64(b, m.Seq)
	b = putU16(b, m.Phase)
	b = putU32(b, m.TaskIndex)
	b = putU32(b, m.WorkerID)
	b = putF64(b, m.Duration)
	b = putBool(b, m.Killed)
	return b
}

func (m *TaskDone) decode(r *reader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	m.Phase = r.u16()
	m.TaskIndex = r.u32()
	m.WorkerID = r.u32()
	m.Duration = r.f64()
	m.Killed = r.bool()
	return r.err
}

// Node roles for Hello.
const (
	RoleScheduler uint8 = 1
	RoleWorker    uint8 = 2
	RoleClient    uint8 = 3
)

// Hello is the connection handshake.
type Hello struct {
	Role  uint8
	ID    uint32
	Slots uint32 // workers announce their slot count

	// Speed, CapCPU and CapMem are a worker's service-rate factor and
	// per-slot capacity: the two facts placement needs about a machine,
	// so a scheduler needs no out-of-band machine configuration. A speed
	// of 0 reads as 1, and a zero capacity admits only zero-demand tasks.
	Speed  float64
	CapCPU float64
	CapMem float64

	// Running is a re-registering worker's inventory of this scheduler's
	// copies still executing on it — the state a restarted scheduler
	// rebuilds its placement bookkeeping from instead of double-placing
	// the tasks. Empty on a first registration.
	Running []RunningCopy
	// Reservations reports the parked reservations the worker held for
	// this scheduler's jobs when the previous connection died (counts
	// aggregated per job). The restarted scheduler re-probes on job
	// resubmission anyway, so this is reconciliation accounting, not a
	// replacement for fresh probes.
	Reservations []JobReservation
}

// RunningCopy is one still-executing copy in a re-registration Hello.
// Seq is the worker's original assign sequence number, so the completion
// report the copy eventually sends resolves against the reconciled
// record. Remaining is the copy's service time left at Hello time, in
// virtual seconds — the restarted scheduler arms its watchdog from it.
type RunningCopy struct {
	JobID       uint64
	Seq         uint64
	Phase       uint16
	TaskIndex   uint32
	Speculative bool
	Remaining   float64
}

// JobReservation aggregates a worker's lost reservations for one job.
type JobReservation struct {
	JobID uint64
	Count uint32
}

// MaxHelloInventory bounds the per-Hello inventory list lengths the
// decoder will allocate for (a worker holds at most slots-many running
// copies and a handful of reservation entries; a malicious frame gets
// no amplification).
const MaxHelloInventory = 1 << 16

// Type implements Message.
func (*Hello) Type() MsgType { return THello }

func (m *Hello) encode(b []byte) []byte {
	b = putU8(b, m.Role)
	b = putU32(b, m.ID)
	b = putU32(b, m.Slots)
	b = putF64(b, m.Speed)
	b = putF64(b, m.CapCPU)
	b = putF64(b, m.CapMem)
	b = putU16(b, uint16(len(m.Running)))
	for _, rc := range m.Running {
		b = putU64(b, rc.JobID)
		b = putU64(b, rc.Seq)
		b = putU16(b, rc.Phase)
		b = putU32(b, rc.TaskIndex)
		b = putBool(b, rc.Speculative)
		b = putF64(b, rc.Remaining)
	}
	b = putU16(b, uint16(len(m.Reservations)))
	for _, jr := range m.Reservations {
		b = putU64(b, jr.JobID)
		b = putU32(b, jr.Count)
	}
	return b
}

func (m *Hello) decode(r *reader) error {
	m.Role = r.u8()
	m.ID = r.u32()
	m.Slots = r.u32()
	m.Speed = r.f64()
	m.CapCPU = r.f64()
	m.CapMem = r.f64()
	nr := int(r.u16())
	if nr > 0 {
		m.Running = make([]RunningCopy, 0, min(nr, MaxHelloInventory))
		for i := 0; i < nr; i++ {
			if r.err != nil {
				return r.err
			}
			m.Running = append(m.Running, RunningCopy{
				JobID:       r.u64(),
				Seq:         r.u64(),
				Phase:       r.u16(),
				TaskIndex:   r.u32(),
				Speculative: r.bool(),
				Remaining:   r.f64(),
			})
		}
	}
	nv := int(r.u16())
	if nv > 0 {
		m.Reservations = make([]JobReservation, 0, min(nv, MaxHelloInventory))
		for i := 0; i < nv; i++ {
			if r.err != nil {
				return r.err
			}
			m.Reservations = append(m.Reservations, JobReservation{
				JobID: r.u64(),
				Count: r.u32(),
			})
		}
	}
	return r.err
}

// Kill tells a worker to stop the copy it started for Assign sequence
// Seq: a sibling copy won the race. The worker frees the slot
// immediately and sends no TaskDone for the killed copy (the scheduler
// already settled the whole race when the winner reported).
type Kill struct {
	JobID uint64
	Seq   uint64
}

// Type implements Message.
func (*Kill) Type() MsgType { return TKill }

func (m *Kill) encode(b []byte) []byte {
	b = putU64(b, m.JobID)
	return putU64(b, m.Seq)
}

func (m *Kill) decode(r *reader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	return r.err
}
