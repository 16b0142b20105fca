package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeMessage feeds whole frames (4-byte length, 1-byte type,
// payload) through the same path a connection reader uses: one Reader,
// which then reads further frames through the same buffer. The decoder
// must never panic and never over-read; structurally valid frames must
// re-encode to the identical bytes (canonical round trip), and what the
// Reader returned must not change when later frames overwrite its
// buffer. Seeds come from the property-test corpus plus deliberately
// truncated and over-length variants of each message, and the replica
// list's edges (replicaSeeds).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range corpusMessages() {
		frame := Append(nil, m)
		f.Add(frame)
		// Truncations at a few depths: header-only, half payload, off by
		// one. The fuzzer mutates from here into the full space.
		if len(frame) > 5 {
			f.Add(frame[:5])
			f.Add(frame[:5+(len(frame)-5)/2])
			f.Add(frame[:len(frame)-1])
		}
		// Over-length: one trailing byte with a fixed-up header.
		over := append(append([]byte(nil), frame...), 0x00)
		binary.BigEndian.PutUint32(over[:4], uint32(len(over)-5))
		f.Add(over)
	}
	for _, frame := range replicaSeeds() {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, byte(TKill)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xEE})

	// The frames that follow the fuzzed one: between them they write over
	// every buffer byte a string or list of the first could have kept.
	var tail []byte
	for _, m := range corpusMessages() {
		tail = Append(tail, m)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) >= 5 && MsgType(frame[4]) == TSubmitJob {
			checkRecycledDecode(t, frame[5:])
		}
		// The Reader reads ahead, so input past the frame the header
		// announces would be read as the start of the next frame: feed
		// the frame alone, as a stream would carry it.
		if len(frame) >= 5 {
			if n := uint64(binary.BigEndian.Uint32(frame)); 5+n < uint64(len(frame)) {
				frame = frame[:5+n]
			}
		}
		var src bytes.Buffer
		src.Write(frame)
		rd := NewReader(&src)
		m, err := rd.Read()
		if err != nil {
			// Every failure must be classified: either a stream-level
			// error (truncation, oversize) or a recoverable frame-local
			// decode error — never an unclassified panic path.
			if errors.As(err, new(*DecodeError)) {
				// The frame was fully consumed; the next read must see a
				// clean stream, which for a single-frame input means EOF
				// or a fresh header attempt, not a crash.
				rest := bytes.NewReader(frame)
				_, _ = io.CopyN(io.Discard, rest, int64(len(frame)))
			}
			return
		}
		// Semantic round trip: a decoded message must re-encode to a
		// frame that decodes back to the same message. (Byte identity is
		// deliberately not required: non-canonical inputs like a bool
		// byte of 0x02 normalize on re-encode.)
		re := Append(nil, m)
		src.Reset()
		src.Write(tail)
		for _, want := range corpusMessages() {
			if got, err := rd.Read(); err != nil || got.Type() != want.Type() {
				t.Fatalf("%s frame after a fuzzed %s: %v, %v", want.Type(), m.Type(), got, err)
			}
		}
		if again := Append(nil, m); !bytes.Equal(re, again) {
			t.Fatalf("%s changed while later frames were read:\n before %x\n after  %x", m.Type(), re, again)
		}
		m2, err := NewReader(bytes.NewReader(re)).Read()
		if err != nil {
			t.Fatalf("re-encoded %s failed to decode: %v", m.Type(), err)
		}
		re2 := Append(nil, m2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("unstable round trip for %s:\n 1st %x\n 2nd %x", m.Type(), re, re2)
		}
	})
}

// replicaSeeds are SubmitJob frames at the edges of a phase's replica
// list: more groups announced than MaxReplicaTasks allows, a payload
// that ends inside a group, an empty group between two full ones, and a
// group of 255 ids, the most one can carry.
func replicaSeeds() [][]byte {
	over := Append(nil, &SubmitJob{JobID: 1, Phases: []PhaseSpec{{NumTasks: MaxReplicaTasks + 1}}})
	over[len(over)-1] = 1 // the replica-list flag, the frame's last byte

	cut := Append(nil, &SubmitJob{JobID: 2, Phases: []PhaseSpec{{NumTasks: 2, Replicas: [][]uint32{{1, 2, 3}, {4}}}}})
	cut = cut[:len(cut)-5-6] // two of the first group's three ids
	binary.BigEndian.PutUint32(cut[:4], uint32(len(cut)-5))

	gap := Append(nil, &SubmitJob{JobID: 3, Phases: []PhaseSpec{{NumTasks: 3, Replicas: [][]uint32{{1, 2}, nil, {3}}}}})

	ids := make([]uint32, 255)
	for i := range ids {
		ids[i] = uint32(i) * 7
	}
	full := Append(nil, &SubmitJob{JobID: 4, Phases: []PhaseSpec{{NumTasks: 2, Replicas: [][]uint32{ids, {9}}}}})
	return [][]byte{over, cut, gap, full}
}

// heldSubmitJob returns a released submission that held a larger one
// first: four phases, with deps, replica groups in three of them and 40
// tasks each, so every slice a later decode could reuse is non-empty.
func heldSubmitJob(t testing.TB) *SubmitJob {
	big := replicaJob(40)
	big.Phases = append(big.Phases, PhaseSpec{Deps: []uint16{0, 1, 2}, MeanDur: 4, NumTasks: 40, Replicas: big.Phases[1].Replicas})
	m := &SubmitJob{}
	if err := decodePayload(m, &reader{buf: Append(nil, big)[5:]}); err != nil {
		t.Fatal(err)
	}
	Release(m)
	return m
}

// checkRecycledDecode decodes a SubmitJob payload into a fresh struct
// and into one that held a larger submission, and fails unless both
// come out the same: equal on success, both failing otherwise.
func checkRecycledDecode(t *testing.T, payload []byte) {
	t.Helper()
	fresh, ferr := Decode(TSubmitJob, payload)
	held := heldSubmitJob(t)
	herr := decodePayload(held, &reader{buf: payload})
	if (ferr == nil) != (herr == nil) {
		t.Fatalf("fresh decode: %v; recycled decode: %v", ferr, herr)
	}
	if ferr == nil && !sameSubmission(fresh.(*SubmitJob), held) {
		t.Fatalf("a recycled SubmitJob decoded differently:\n fresh    %+v\n recycled %+v", fresh, held)
	}
}

// sameSubmission is reflect.DeepEqual for submissions, save that a NaN
// field equals itself: the two encode to the same bytes, and every
// slice of one is nil where the other's is.
func sameSubmission(a, b *SubmitJob) bool {
	if !bytes.Equal(Append(nil, a), Append(nil, b)) || (a.Phases == nil) != (b.Phases == nil) || len(a.Phases) != len(b.Phases) {
		return false
	}
	for i, p := range a.Phases {
		q := b.Phases[i]
		if (p.Deps == nil) != (q.Deps == nil) || (p.Replicas == nil) != (q.Replicas == nil) || len(p.Replicas) != len(q.Replicas) {
			return false
		}
		for k, g := range p.Replicas {
			if (g == nil) != (q.Replicas[k] == nil) {
				return false
			}
		}
	}
	return true
}
