package wire

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes and decodes a message, failing on any mismatch.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	got, err := NewReader(bytes.NewReader(Append(nil, m))).Read()
	if err != nil {
		t.Fatalf("read %s: %v", m.Type(), err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range corpusMessages() {
		roundTrip(t, m)
	}
}

// corpusMessages is the canonical one-of-each message set, shared by the
// round-trip test and the fuzz seed corpus.
func corpusMessages() []Message {
	return []Message{
		&SubmitJob{JobID: 42, Name: "wordcount", Phases: []PhaseSpec{
			{MeanDur: 1.5, TransferWork: 3.25, NumTasks: 100},
			{Deps: []uint16{0}, MeanDur: 2.5, TransferWork: 0.5, NumTasks: 40},
		}},
		&SubmitJob{JobID: 1}, // no phases
		&SubmitJob{JobID: 2, Name: "local", Phases: []PhaseSpec{
			{MeanDur: 1, NumTasks: 3, Replicas: [][]uint32{{0, 5}, nil, {2}}},
			{Deps: []uint16{0}, MeanDur: 2, NumTasks: 1, Replicas: [][]uint32{nil}},
		}},
		&JobComplete{JobID: 42, Completion: 12.25, TasksRun: 140, SpecCopies: 13},
		&JobComplete{JobID: 43, Aborted: true, Error: "scheduler shutting down"},
		&SubmitJob{JobID: 3, Name: "hetero", Phases: []PhaseSpec{
			{MeanDur: 2, NumTasks: 12, DemandCPU: 8, DemandMem: 16},
			{Deps: []uint16{0}, MeanDur: 1, NumTasks: 4, DemandCPU: 2, DemandMem: 4},
		}},
		&Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46},
		&Reserve{JobID: 8, SchedulerID: 1, VirtualSize: 3.25, RemTasks: 9,
			DemandCPU: 8, DemandMem: 16},
		&Offer{JobID: 7, WorkerID: 199, Seq: 88, Refusable: true},
		&Offer{JobID: 7, WorkerID: 199, Seq: 89, Refusable: false, GetTask: true},
		&Offer{JobID: 8, WorkerID: 12, Seq: 90, Refusable: true, FreeSlots: 6},
		&Assign{JobID: 7, Seq: 88, Phase: 1, TaskIndex: 17, Speculative: true,
			Duration: 9.75, VirtualSize: 44, RemTasks: 12},
		&Refuse{JobID: 7, Seq: 90, NoDemand: true, HasUnsat: true,
			UnsatJobID: 9, UnsatVS: 4.5, VirtualSize: 61.5, RemTasks: 46},
		&NoTask{JobID: 7, Seq: 91, JobDone: true, NoDemand: true, VirtualSize: 12.5, RemTasks: 3},
		&TaskDone{JobID: 7, Seq: 92, Phase: 2, TaskIndex: 5, WorkerID: 12, Duration: 3.5, Killed: true},
		&Hello{Role: RoleWorker, ID: 17, Slots: 16},
		&Hello{Role: RoleWorker, ID: 18, Slots: 4,
			Running: []RunningCopy{
				{JobID: 7, Seq: 88, Phase: 1, TaskIndex: 17, Speculative: true, Remaining: 2.5},
				{JobID: 9, Seq: 91, Phase: 0, TaskIndex: 0, Remaining: 0.25},
			},
			Reservations: []JobReservation{{JobID: 7, Count: 3}, {JobID: 11, Count: 1}},
		},
		&Hello{Role: RoleWorker, ID: 19, Slots: 2,
			Reservations: []JobReservation{{JobID: 5, Count: 2}}},
		&Hello{Role: RoleWorker, ID: 20, Slots: 8, Class: 0,
			Classes: []ClassSpec{
				{Name: "big", Speed: 2, Slots: 8, CapCPU: 16, CapMem: 32},
			}},
		&Ping{Nonce: 0xDEADBEEF},
		&Pong{Nonce: 0xDEADBEEF},
		&Kill{JobID: 7, Seq: 93},
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	sent := []Message{
		&Ping{Nonce: 1},
		&Reserve{JobID: 2, SchedulerID: 1, VirtualSize: 3, RemTasks: 4},
		&Pong{Nonce: 5},
	}
	var stream []byte
	for _, m := range sent {
		stream = Append(stream, m)
	}
	rd := NewReader(bytes.NewReader(stream))
	for i, want := range sent {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	full := Append(nil, &Reserve{JobID: 1, SchedulerID: 2, VirtualSize: 3, RemTasks: 4})
	for cut := 1; cut < len(full); cut++ {
		_, err := NewReader(bytes.NewReader(full[:cut])).Read()
		if err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [5]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	hdr[4] = byte(TPing)
	_, err := NewReader(bytes.NewReader(hdr[:])).Read()
	if err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	frame := []byte{0, 0, 0, 0, 0xEE}
	_, err := NewReader(bytes.NewReader(frame)).Read()
	if err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	frame := Append(nil, &Ping{Nonce: 9})
	// Grow the payload by one byte and fix the length header.
	frame = append(frame, 0x00)
	frame[3]++ // length low byte (payload was 8)
	_, err := NewReader(bytes.NewReader(frame)).Read()
	if err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeGarbagePayloadsDontPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	types := []MsgType{TSubmitJob, TJobComplete, TReserve, TOffer, TAssign, TRefuse, TNoTask, TTaskDone, THello, TPing, TPong, TKill}
	for i := 0; i < 2000; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		typ := types[rng.Intn(len(types))]
		// Must not panic; errors are fine.
		_, _ = Decode(typ, payload)
	}
}

func TestSubmitJobPropertyRoundTrip(t *testing.T) {
	f := func(jobID uint64, name string, nPhases uint8, meanDur float64, tasks uint32) bool {
		if math.IsNaN(meanDur) {
			meanDur = 0
		}
		m := &SubmitJob{JobID: jobID, Name: name}
		for p := 0; p < int(nPhases%6); p++ {
			ps := PhaseSpec{MeanDur: meanDur, TransferWork: meanDur * 2, NumTasks: tasks % 10000}
			if p > 0 {
				ps.Deps = []uint16{uint16(p - 1)}
			}
			m.Phases = append(m.Phases, ps)
		}
		buf := Append(nil, m)
		got, err := Decode(MsgType(buf[4]), buf[5:])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRefusePropertyRoundTrip(t *testing.T) {
	f := func(jobID, seq, unsatID uint64, vs, uvs float64, nd, hu bool, rem uint32) bool {
		if math.IsNaN(vs) || math.IsNaN(uvs) {
			return true // NaN != NaN under DeepEqual; not a meaningful payload
		}
		m := &Refuse{JobID: jobID, Seq: seq, NoDemand: nd, HasUnsat: hu,
			UnsatJobID: unsatID, UnsatVS: uvs, VirtualSize: vs, RemTasks: rem}
		buf := Append(nil, m)
		got, err := Decode(MsgType(buf[4]), buf[5:])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

func TestLongStringTruncatedSafely(t *testing.T) {
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'a'
	}
	m := &SubmitJob{JobID: 1, Name: string(long)}
	buf := Append(nil, m)
	got, err := Decode(MsgType(buf[4]), buf[5:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.(*SubmitJob).Name) != math.MaxUint16 {
		t.Fatalf("name length = %d, want %d", len(got.(*SubmitJob).Name), math.MaxUint16)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{TSubmitJob, TJobComplete, TReserve, TOffer, TAssign, TRefuse, TNoTask, TTaskDone, THello, TPing, TPong, TKill} {
		if s := typ.String(); s == "" || s[0] == 'M' {
			t.Errorf("missing String for %d: %q", typ, s)
		}
	}
	if s := MsgType(200).String(); s != "MsgType(200)" {
		t.Errorf("unknown type String = %q", s)
	}
}

func BenchmarkEncodeReserve(b *testing.B) {
	m := &Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Append(buf[:0], m)
	}
}

func BenchmarkDecodeReserve(b *testing.B) {
	buf := Append(nil, &Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(MsgType(buf[4]), buf[5:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHelloClassCountLiesBounded patches a Hello frame's class-table
// count to the u16 maximum with no matching payload: the decoder must
// fail at the first missing entry (the append-bounded loop, same guard
// as Replicas and the inventory lists) instead of pre-committing an
// attacker-sized allocation or panicking.
func TestHelloClassCountLiesBounded(t *testing.T) {
	h := &Hello{Role: RoleWorker, ID: 20, Slots: 8,
		Classes: []ClassSpec{{Name: "big", Speed: 2, Slots: 8, CapCPU: 16, CapMem: 32}}}
	frame := Append(nil, h)
	// Layout after the 5-byte frame header: role u8, id u32, slots u32,
	// class u32, classCount u16.
	off := 5 + 1 + 4 + 4 + 4
	frame[off] = 0xFF
	frame[off+1] = 0xFF
	if _, err := NewReader(bytes.NewReader(frame)).Read(); err == nil {
		t.Fatal("decoder accepted a class table count with no payload behind it")
	}
}
