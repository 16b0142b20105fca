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
// which then reads further frames through the same scratch. The decoder
// must never panic and never over-read; structurally valid frames must
// re-encode to the identical bytes (canonical round trip), and what the
// Reader returned must not change when later frames overwrite its
// scratch. Seeds come from the property-test corpus plus deliberately
// truncated and over-length variants of each message.
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
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, byte(TKill)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xEE})

	// The frames that follow the fuzzed one: between them they write over
	// every scratch byte a string or list of the first could have kept.
	var tail []byte
	for _, m := range corpusMessages() {
		tail = Append(tail, m)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
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
