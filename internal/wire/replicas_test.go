package wire

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// replicaJob is a three-phase submission of n tasks per phase: an input
// phase whose tasks hold two or three replicas each, with every fifth
// group empty; a phase with one dep and one replica per task; and a
// phase with two deps and no replica list.
func replicaJob(n int) *SubmitJob {
	in := make([][]uint32, n)
	mid := make([][]uint32, n)
	for i := range in {
		if i%5 != 4 {
			in[i] = []uint32{uint32(i), uint32(i + 1)}
			if i%2 == 0 {
				in[i] = append(in[i], uint32(i+2))
			}
		}
		mid[i] = []uint32{uint32(3 * i)}
	}
	return &SubmitJob{JobID: 77, Name: "replicas", Phases: []PhaseSpec{
		{MeanDur: 1, NumTasks: uint32(n), Replicas: in},
		{Deps: []uint16{0}, MeanDur: 2, NumTasks: uint32(n), Replicas: mid},
		{Deps: []uint16{0, 1}, MeanDur: 3, NumTasks: uint32(n)},
	}}
}

// TestSubmitJobDecodeAllocsPerPhase pins what decoding a submission
// costs: the same allocations at 8 tasks per phase as at 512, because a
// phase's replica groups share one backing array and one header slice.
func TestSubmitJobDecodeAllocsPerPhase(t *testing.T) {
	allocs := func(n int) float64 {
		frame := Append(nil, replicaJob(n))
		return testing.AllocsPerRun(50, func() {
			if _, err := Decode(TSubmitJob, frame[5:]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(512)
	if small != large {
		t.Fatalf("decoding a 3-phase job allocates %.0f times at 8 tasks per phase and %.0f at 512", small, large)
	}
}

// TestReplicaGroupsPackedAndCapped: decoded groups equal the sent ones
// (an empty group decodes nil) and are each capped at their own end, so
// an append to one leaves its neighbour in the shared backing alone.
func TestReplicaGroupsPackedAndCapped(t *testing.T) {
	sent := replicaJob(10)
	m, err := Decode(TSubmitJob, Append(nil, sent)[5:])
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*SubmitJob)
	if !reflect.DeepEqual(sent, got) {
		t.Fatalf("round trip mismatch:\n sent %v\n got  %v", sent.Phases, got.Phases)
	}
	groups := got.Phases[0].Replicas
	for i, g := range groups {
		if cap(g) != len(g) {
			t.Fatalf("group %d has cap %d beyond its %d ids", i, cap(g), len(g))
		}
	}
	next := groups[1][0]
	_ = append(groups[0], 99)
	if groups[1][0] != next {
		t.Fatal("an append to group 0 overwrote group 1")
	}
}

// TestReplicaGroupCountBounded: a phase announcing more than
// MaxReplicaTasks groups is refused before any group is read, and one
// announcing more groups than its payload holds fails at the end of the
// payload, having sized nothing by the announced count.
func TestReplicaGroupCountBounded(t *testing.T) {
	frame := Append(nil, &SubmitJob{JobID: 9, Phases: []PhaseSpec{{NumTasks: MaxReplicaTasks + 1}}})
	frame[len(frame)-1] = 1 // the replica-list flag, the frame's last byte
	_, err := Decode(TSubmitJob, frame[5:])
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("%d announced groups decoded with %v", MaxReplicaTasks+1, err)
	}

	// Two groups on the wire, a million announced.
	frame = Append(nil, &SubmitJob{JobID: 9, Phases: []PhaseSpec{{NumTasks: 2, Replicas: [][]uint32{{1}, {2}}}}})
	lie := len(frame) - 2*5 - 1 - 2*8 - 4 // NumTasks, then two demands, the flag, two 5-byte groups
	frame[lie], frame[lie+1], frame[lie+2], frame[lie+3] = 0, 0x0F, 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Decode(TSubmitJob, frame[5:])
	runtime.ReadMemStats(&after)
	if de := (*DecodeError)(nil); !errors.As(err, &de) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a payload holding 2 of %d groups decoded with %v", 0x0F<<16, err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Fatalf("failing on a short replica list allocated %d bytes", b)
	}
}

// TestRecycledSubmitJobDecodesAsFresh decodes a table of submissions
// into a struct that first held a larger one with deps and replicas,
// and checks each against a fresh decode. A phase that sends no replica
// list or no deps gets nil, not what the same phase held before.
func TestRecycledSubmitJobDecodesAsFresh(t *testing.T) {
	frames := map[string][]byte{
		"same shape, smaller": Append(nil, replicaJob(8)),
		"same shape, larger":  Append(nil, replicaJob(100)),
		"no phases":           Append(nil, &SubmitJob{JobID: 1, Name: "empty"}),
		"no replicas, no deps": Append(nil, &SubmitJob{JobID: 2, Phases: []PhaseSpec{
			{MeanDur: 1, NumTasks: 40}, {MeanDur: 2, NumTasks: 40}, {MeanDur: 3, NumTasks: 40}}}),
		"all groups empty": Append(nil, &SubmitJob{JobID: 3, Phases: []PhaseSpec{
			{MeanDur: 1, NumTasks: 3, Replicas: [][]uint32{nil, nil, nil}}}}),
		"more phases": Append(nil, &SubmitJob{JobID: 4, Phases: []PhaseSpec{
			{NumTasks: 1}, {NumTasks: 1}, {NumTasks: 1}, {NumTasks: 1}, {NumTasks: 1},
			{Deps: []uint16{0, 1, 2, 3, 4}, NumTasks: 2, Replicas: [][]uint32{{7}, {8, 9}}}}}),
	}
	for _, m := range corpusMessages() {
		if m.Type() == TSubmitJob {
			frames["corpus "+m.(*SubmitJob).Name] = Append(nil, m)
		}
	}
	for i, frame := range replicaSeeds() {
		frames[fmt.Sprintf("replica seed %d", i)] = frame
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) { checkRecycledDecode(t, frame[5:]) })
	}

	held := heldSubmitJob(t)
	if err := decodePayload(held, &reader{buf: frames["no replicas, no deps"][5:]}); err != nil {
		t.Fatal(err)
	}
	for i, p := range held.Phases {
		if p.Replicas != nil || p.Deps != nil {
			t.Fatalf("phase %d kept storage it was not sent: deps %v, %d groups", i, p.Deps, len(p.Replicas))
		}
	}
}

// TestRecycledSubmitJobDecodeAllocs: a submission decoded into the
// struct a released one of its shape left behind allocates only its
// name — its phases, deps, group headers and replica ids all fit the
// storage the struct kept.
func TestRecycledSubmitJobDecodeAllocs(t *testing.T) {
	payload := Append(nil, replicaJob(64))[5:]
	m, rd := &SubmitJob{}, &reader{}
	cycle := func() {
		*rd = reader{buf: payload}
		if err := decodePayload(m, rd); err != nil {
			t.Fatal(err)
		}
		Release(m)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 1 {
		t.Fatalf("decoding into a recycled SubmitJob allocates %.0f times, want 1 (the name)", allocs)
	}
}

// decoded keeps the benchmark's result reachable.
var decoded Message

func BenchmarkDecodeSubmitJob(b *testing.B) {
	frame := Append(nil, replicaJob(64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if decoded, err = Decode(TSubmitJob, frame[5:]); err != nil {
			b.Fatal(err)
		}
	}
}
