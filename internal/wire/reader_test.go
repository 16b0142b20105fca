package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// randomMessage draws one message of any of the twelve types, with every
// string and list the decoder has to copy filled in.
func randomMessage(rng *rand.Rand) Message {
	str := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	switch MsgType(rng.Intn(int(TKill)) + 1) {
	case TSubmitJob:
		m := &SubmitJob{JobID: rng.Uint64(), Name: str()}
		for p, n := 0, rng.Intn(5); p < n; p++ {
			ps := PhaseSpec{MeanDur: rng.Float64(), TransferWork: rng.Float64(), NumTasks: uint32(rng.Intn(6))}
			for d := 0; d < p; d++ {
				ps.Deps = append(ps.Deps, uint16(d))
			}
			if rng.Intn(2) == 0 {
				ps.Replicas = [][]uint32{}
				for k := 0; k < int(ps.NumTasks); k++ {
					var reps []uint32
					for q, nq := 0, rng.Intn(4); q < nq; q++ {
						reps = append(reps, rng.Uint32())
					}
					ps.Replicas = append(ps.Replicas, reps)
				}
			}
			m.Phases = append(m.Phases, ps)
		}
		return m
	case TJobComplete:
		return &JobComplete{JobID: rng.Uint64(), Completion: rng.Float64(), TasksRun: rng.Uint32(),
			SpecCopies: rng.Uint32(), Aborted: rng.Intn(2) == 0, Error: str()}
	case TReserve:
		return &Reserve{JobID: rng.Uint64(), SchedulerID: rng.Uint32(), VirtualSize: rng.Float64(),
			RemTasks: rng.Uint32(), DemandCPU: rng.Float64(), DemandMem: rng.Float64()}
	case TOffer:
		return &Offer{JobID: rng.Uint64(), WorkerID: rng.Uint32(), Seq: rng.Uint64(),
			Refusable: rng.Intn(2) == 0, GetTask: rng.Intn(2) == 0, FreeSlots: rng.Uint32()}
	case TAssign:
		return &Assign{JobID: rng.Uint64(), Seq: rng.Uint64(), Phase: uint16(rng.Intn(9)), TaskIndex: rng.Uint32(),
			Speculative: rng.Intn(2) == 0, Duration: rng.Float64(), VirtualSize: rng.Float64(), RemTasks: rng.Uint32()}
	case TRefuse:
		return &Refuse{JobID: rng.Uint64(), Seq: rng.Uint64(), NoDemand: rng.Intn(2) == 0, HasUnsat: rng.Intn(2) == 0,
			UnsatJobID: rng.Uint64(), UnsatVS: rng.Float64(), VirtualSize: rng.Float64(), RemTasks: rng.Uint32()}
	case TNoTask:
		return &NoTask{JobID: rng.Uint64(), Seq: rng.Uint64(), JobDone: rng.Intn(2) == 0, NoDemand: rng.Intn(2) == 0,
			VirtualSize: rng.Float64(), RemTasks: rng.Uint32()}
	case TTaskDone:
		return &TaskDone{JobID: rng.Uint64(), Seq: rng.Uint64(), Phase: uint16(rng.Intn(9)), TaskIndex: rng.Uint32(),
			WorkerID: rng.Uint32(), Duration: rng.Float64(), Killed: rng.Intn(2) == 0}
	case THello:
		m := &Hello{Role: RoleWorker, ID: rng.Uint32(), Slots: rng.Uint32()}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			m.Classes = append(m.Classes, ClassSpec{Name: str(), Speed: rng.Float64(), Slots: rng.Uint32()})
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			m.Running = append(m.Running, RunningCopy{JobID: rng.Uint64(), Seq: rng.Uint64(), Remaining: rng.Float64()})
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			m.Reservations = append(m.Reservations, JobReservation{JobID: rng.Uint64(), Count: rng.Uint32()})
		}
		return m
	case TPing:
		return &Ping{Nonce: rng.Uint64()}
	case TPong:
		return &Pong{Nonce: rng.Uint64()}
	default:
		return &Kill{JobID: rng.Uint64(), Seq: rng.Uint64()}
	}
}

// TestReaderResultsDoNotAliasScratch is the aliasing property: what one
// Reader returned for frame i must still equal a fresh Decode of frame
// i's bytes after every later frame has passed through the same scratch.
// A decoder that kept a slice of the payload (SubmitJob.Name,
// PhaseSpec.Deps, Hello.Classes, JobComplete.Error) fails here.
func TestReaderResultsDoNotAliasScratch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var frames [][]byte
		var stream []byte
		for i := 0; i < 200; i++ {
			f := Append(nil, randomMessage(rng))
			frames = append(frames, f)
			stream = append(stream, f...)
		}
		rd := NewReader(bufio.NewReaderSize(bytes.NewReader(stream), 64))
		got := make([]Message, len(frames))
		for i := range frames {
			m, err := rd.Read()
			if err != nil {
				t.Fatalf("seed %d frame %d: %v", seed, i, err)
			}
			got[i] = m
		}
		if _, err := rd.Read(); err != io.EOF {
			t.Fatalf("seed %d: after the last frame: %v, want io.EOF", seed, err)
		}
		for i, f := range frames {
			want, err := Decode(MsgType(f[4]), f[5:])
			if err != nil {
				t.Fatalf("seed %d frame %d: fresh decode: %v", seed, i, err)
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("seed %d frame %d (%s) changed after later frames were read:\n fresh  %#v\n stream %#v",
					seed, i, want.Type(), want, got[i])
			}
		}
	}
}

// TestReaderFramingEdges drives every framing check a Reader makes, in
// the order it makes them.
func TestReaderFramingEdges(t *testing.T) {
	t.Run("oversize header allocates no payload", func(t *testing.T) {
		hdr := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
		hdr = append(hdr, byte(TPing))
		src := bytes.NewReader(hdr)
		rd := NewReader(src)
		allocs := testing.AllocsPerRun(50, func() {
			src.Reset(hdr)
			if _, err := rd.Read(); err != ErrFrameTooLarge {
				t.Fatalf("err = %v, want ErrFrameTooLarge", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("rejecting an oversize header allocated %.0f objects, want 0", allocs)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		full := Append(nil, &Reserve{JobID: 1, SchedulerID: 2, VirtualSize: 3, RemTasks: 4})
		for cut := 0; cut < len(full); cut++ {
			// What two io.ReadFull calls, header then payload, report.
			want := io.ErrUnexpectedEOF
			if cut == 0 || cut == 5 {
				want = io.EOF // nothing of the header, or nothing of the payload
			}
			if _, err := NewReader(bytes.NewReader(full[:cut])).Read(); err != want {
				t.Fatalf("cut at %d: err = %v, want %v", cut, err, want)
			}
		}
	})

	t.Run("unknown type is skipped", func(t *testing.T) {
		stream := []byte{0, 0, 0, 3, 0xEE, 1, 2, 3}
		stream = Append(stream, &Kill{JobID: 7, Seq: 93})
		rd := NewReader(bytes.NewReader(stream))
		_, err := rd.Read()
		if !errors.As(err, new(*DecodeError)) || !errors.Is(err, ErrUnknownType) {
			t.Fatalf("unknown type: err = %v, want a recoverable ErrUnknownType", err)
		}
		m, err := rd.Read()
		if err != nil || !reflect.DeepEqual(m, &Kill{JobID: 7, Seq: 93}) {
			t.Fatalf("frame after the unknown one: %#v, %v", m, err)
		}
	})

	t.Run("trailing and missing payload bytes are recoverable", func(t *testing.T) {
		long := append(Append(nil, &Ping{Nonce: 9}), 0x00)
		long[3]++
		short := Append(nil, &Ping{Nonce: 9})
		short = short[:len(short)-1]
		short[3]--
		for name, bad := range map[string][]byte{"trailing": long, "short": short} {
			rd := NewReader(bytes.NewReader(Append(bad, &Pong{Nonce: 5})))
			if _, err := rd.Read(); !errors.As(err, new(*DecodeError)) {
				t.Fatalf("%s: err = %v, want a recoverable decode error", name, err)
			}
			if m, err := rd.Read(); err != nil || m.(*Pong).Nonce != 5 {
				t.Fatalf("%s: next frame: %#v, %v", name, m, err)
			}
		}
	})

	t.Run("a frame larger than every buffer round-trips and is not retained", func(t *testing.T) {
		big := &SubmitJob{JobID: 9, Name: "wide"}
		for p := 0; p < 200; p++ {
			ps := PhaseSpec{MeanDur: 1, NumTasks: 3, Replicas: [][]uint32{{1, 2}, nil, {uint32(p)}}}
			if p > 0 {
				ps.Deps = []uint16{uint16(p - 1)}
			}
			big.Phases = append(big.Phases, ps)
		}
		frame := Append(nil, big)
		const recvBuffer = 4 << 10 // transport's read buffer
		if len(frame) <= recvBuffer || len(frame) <= readerScratch {
			t.Fatalf("frame is %d bytes; the test needs one larger than the buffers", len(frame))
		}
		stream := Append(append([]byte(nil), frame...), &Kill{JobID: 1, Seq: 2})
		rd := NewReader(bufio.NewReaderSize(bytes.NewReader(stream), recvBuffer))
		m, err := rd.Read()
		if err != nil || !reflect.DeepEqual(m, big) {
			t.Fatalf("big frame: err %v, equal %v", err, reflect.DeepEqual(m, big))
		}
		if rd.cur.buf != nil {
			t.Fatalf("the reader still holds the %d-byte one-off payload buffer", len(rd.cur.buf))
		}
		if k, err := rd.Read(); err != nil || !reflect.DeepEqual(k, &Kill{JobID: 1, Seq: 2}) {
			t.Fatalf("frame after the big one: %#v, %v", k, err)
		}
	})
}

// TestReadReleaseAllocatesNothing pins the receive path of the seven
// per-frame message types at zero allocations: header, payload and
// cursor live in the Reader and the struct comes back from the free
// list.
func TestReadReleaseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of Puts under -race, so the free list misses by design")
	}
	for _, m := range []Message{
		&Reserve{JobID: 8, SchedulerID: 1, VirtualSize: 3.25, RemTasks: 9, DemandCPU: 8, DemandMem: 16},
		&Offer{JobID: 8, WorkerID: 12, Seq: 90, Refusable: true, FreeSlots: 6},
		&Assign{JobID: 7, Seq: 88, Phase: 1, TaskIndex: 17, Speculative: true, Duration: 9.75, VirtualSize: 44, RemTasks: 12},
		&Refuse{JobID: 7, Seq: 90, HasUnsat: true, UnsatJobID: 9, UnsatVS: 4.5, VirtualSize: 61.5, RemTasks: 46},
		&NoTask{JobID: 7, Seq: 91, NoDemand: true, VirtualSize: 12.5, RemTasks: 3},
		&TaskDone{JobID: 7, Seq: 92, Phase: 2, TaskIndex: 5, WorkerID: 12, Duration: 3.5},
		&Kill{JobID: 7, Seq: 93},
	} {
		frame := Append(nil, m)
		src := bytes.NewReader(frame)
		rd := NewReader(src)
		cycle := func() {
			src.Reset(frame)
			got, err := rd.Read()
			if err != nil {
				t.Fatal(err)
			}
			Release(got)
		}
		cycle() // first read of a type allocates the struct the list then recycles
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("reading and releasing a %s allocates %.0f/op, want 0", m.Type(), allocs)
		}
	}
}

// TestReleaseZeroes: a released message reads as zero, so a pointer kept
// past Release fails loudly instead of showing a stranger's frame, and
// what the free list hands out is clean.
func TestReleaseZeroes(t *testing.T) {
	for _, m := range corpusMessages() {
		zero := reflect.New(reflect.TypeOf(m).Elem()).Interface()
		pooled := recycledTypes[m.Type()]
		Release(m)
		if isZero := reflect.DeepEqual(m, zero); isZero != pooled {
			t.Errorf("%s after Release: zeroed = %v, want %v", m.Type(), isZero, pooled)
		}
	}
	if m := recycled(MsgType(0xEE)); m != nil {
		t.Fatalf("free list produced %#v for an unknown type", m)
	}
}

// recycledTypes is the set of types the free list holds.
var recycledTypes = map[MsgType]bool{
	TReserve: true, TOffer: true, TAssign: true, TRefuse: true, TNoTask: true, TTaskDone: true, TKill: true,
}

func BenchmarkReaderReserve(b *testing.B) {
	frame := Append(nil, &Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46})
	src := bytes.NewReader(frame)
	rd := NewReader(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		m, err := rd.Read()
		if err != nil {
			b.Fatal(err)
		}
		Release(m)
	}
}

// TestFreeListSharedByConcurrentReaders runs several streams at once, each
// reading, checking and releasing its own frames: what one goroutine
// releases another decodes into, so a struct handed out twice or not
// fully overwritten shows up as a wrong field (and, under -race, as a
// race).
func TestFreeListSharedByConcurrentReaders(t *testing.T) {
	const streams, frames = 8, 2000
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g) + 100))
			var want []Message
			var stream []byte
			for i := 0; i < frames; i++ {
				m := randomMessage(rng)
				want = append(want, m)
				stream = Append(stream, m)
			}
			rd := NewReader(bytes.NewReader(stream))
			for i, w := range want {
				got, err := rd.Read()
				if err != nil {
					errs <- fmt.Errorf("stream %d frame %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(Append(nil, got), Append(nil, w)) {
					errs <- fmt.Errorf("stream %d frame %d: read %#v, sent %#v", g, i, got, w)
					return
				}
				Release(got)
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < streams; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
