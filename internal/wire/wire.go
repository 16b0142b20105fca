// Package wire defines the binary protocol spoken between live Hopper
// schedulers, workers, and clients (Section 6.1's prototype uses Thrift
// RPCs; we use a hand-rolled, dependency-free codec with the same message
// vocabulary).
//
// Framing: every message is a length-prefixed frame
//
//	uint32  payload length (big endian, excluding the 5 header bytes)
//	uint8   message type
//	payload type-specific fields, fixed order
//
// Scalars are big-endian; strings and byte slices are uint16/uint32
// length-prefixed. All messages round-trip exactly (see the property
// tests).
//
// What a frame costs: encoding appends to a caller buffer and allocates
// nothing. Decoding copies every string and list it keeps, so a decoded
// message never aliases the bytes it was read from and those bytes can
// be reused at once. A connection reads through a Reader, which owns a
// small read buffer and the cursor, decodes each frame where it was
// read, and fills the seven fixed-size message types (Reserve, Offer,
// Assign, Refuse, NoTask, TaskDone, Kill) from a free list: reading one
// of those allocates nothing once the list is warm. JobComplete is on
// the list as well (its Error string is still allocated), and
// SubmitJob, with the storage of the submission it last held. Decode is
// the one-shot entry and always allocates its message.
//
// Who owns a decoded message: whoever Read or Decode returned it to, for
// as long as it likes. Release is how an owner that is finished with a
// message feeds the free list; it is optional, and it is the owner's
// promise that no pointer to the message survives.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types. The vocabulary mirrors the simulator's protocol
// one-to-one so the live system runs the same state machines.
const (
	// TSubmitJob: client -> scheduler. A job definition.
	TSubmitJob MsgType = iota + 1
	// TJobComplete: scheduler -> client. Job finished.
	TJobComplete
	// TReserve: scheduler -> worker. A reservation request (probe) for a
	// job, carrying the job's current virtual size and remaining tasks.
	TReserve
	// TOffer: worker -> scheduler. The worker offers a slot to the job
	// (refusable or not) — Pseudocode 3's Response.
	TOffer
	// TAssign: scheduler -> worker. A task to run (answer to TOffer).
	TAssign
	// TRefuse: scheduler -> worker. Refusable offer declined; piggybacks
	// the scheduler's smallest unsatisfied job — Pseudocode 2.
	TRefuse
	// TNoTask: scheduler -> worker. Nothing to run (job done or drained).
	TNoTask
	// TTaskDone: worker -> scheduler. A task copy finished.
	TTaskDone
	// THello: node handshake (role + identity).
	THello
	// TKill: scheduler -> worker. Stop a running copy early (a sibling
	// copy won the race); the slot frees immediately and no TaskDone is
	// sent for the killed copy. Kill stays at 12, the number logs and
	// the chaos frame-log digest print; 10 and 11 are unused.
	TKill MsgType = 12
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TSubmitJob:
		return "SubmitJob"
	case TJobComplete:
		return "JobComplete"
	case TReserve:
		return "Reserve"
	case TOffer:
		return "Offer"
	case TAssign:
		return "Assign"
	case TRefuse:
		return "Refuse"
	case TNoTask:
		return "NoTask"
	case TTaskDone:
		return "TaskDone"
	case THello:
		return "Hello"
	case TKill:
		return "Kill"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the message's wire type tag.
	Type() MsgType
	// encode appends the payload (not the frame header) to b.
	encode(b []byte) []byte
	// decode parses the payload.
	decode(r *reader) error
}

// MaxFrameSize bounds a frame payload; a peer announcing more is treated
// as malicious/corrupt and the connection is dropped.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrUnknownType is returned for unrecognized message type tags.
var ErrUnknownType = errors.New("wire: unknown message type")

// DecodeError wraps a payload-level decoding failure for a frame that
// was fully consumed from the stream: the connection is still in sync
// and the next frame can be read. Transport receivers skip such frames
// instead of killing the connection (forward compatibility: a newer peer
// may speak message types or fields this build does not know).
type DecodeError struct {
	Type MsgType
	Err  error
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: decoding %s: %v", e.Type, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *DecodeError) Unwrap() error { return e.Err }

// --- primitive encoders ------------------------------------------------

func putU8(b []byte, v uint8) []byte   { return append(b, v) }
func putU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func putF64(b []byte, v float64) []byte {
	return putU64(b, math.Float64bits(v))
}
func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func putString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = putU16(b, uint16(len(s)))
	return append(b, s...)
}

// reader is a bounds-checked payload reader; the first error sticks.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = io.ErrUnexpectedEOF
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// skip advances past n bytes without reading them.
func (r *reader) skip(n int) {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return
	}
	r.off += n
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) string() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// remaining reports unread payload bytes (must be zero after decode).
func (r *reader) remaining() int { return len(r.buf) - r.off }

// --- framing ------------------------------------------------------------

// Append encodes msg as a complete frame appended to dst.
func Append(dst []byte, msg Message) []byte {
	// Reserve the header, encode the payload, back-patch the length.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(msg.Type()))
	dst = msg.encode(dst)
	payload := len(dst) - start - 5
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst
}

// readBuffer sizes a Reader's buffer, the only memory an idle
// connection's read side holds. Every fixed-size protocol message is
// under 60 bytes and a typical Hello or SubmitJob under a few hundred,
// so one read takes a peer's flush of several frames; a larger frame (a
// SubmitJob with long replica lists) is read into a one-off slice, so one
// big frame never pins memory on a connection. A cluster holds two
// connection ends per worker per scheduler, so this is the per-end cost
// that multiplies (6 MB of Readers per scheduler at 10,000 workers).
const readBuffer = 512

// Reader decodes the frames of one stream. It owns everything a frame
// costs to read — a bounded buffer and the decode cursor — and draws the
// fixed-size message types from a free list (see Release), so reading
// one of those allocates nothing. A frame that fits the buffer is
// decoded where it was read; nothing a returned message references
// aliases the buffer. Not safe for concurrent use: one reader goroutine
// per stream.
type Reader struct {
	src  io.Reader
	cur  reader
	r, w int // buf[r:w] is read from src and not yet decoded
	buf  [readBuffer]byte
}

// NewReader returns a Reader over src. It reads ahead: one read from src
// takes as much as the buffer has room for, and what follows the frame
// a Read returns stays buffered for the next, so a socket needs nothing
// underneath.
func NewReader(src io.Reader) *Reader { return &Reader{src: src} }

// Read reads and decodes the next frame. The message is the caller's: it
// may keep it forever, or hand it to Release once nothing references it.
// A *DecodeError means the frame was consumed and the stream is still in
// sync; any other error is stream-level (io.EOF at a clean frame
// boundary or right after a header, io.ErrUnexpectedEOF inside the
// header or the payload, ErrFrameTooLarge).
func (s *Reader) Read() (Message, error) {
	if err := s.fill(5, 0); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(s.buf[s.r:])
	t := MsgType(s.buf[s.r+4])
	if size > MaxFrameSize {
		s.r += 5
		return nil, ErrFrameTooLarge
	}
	n := int(size)
	var payload []byte
	if 5+n <= readBuffer {
		if err := s.fill(5+n, 5); err != nil {
			return nil, err
		}
		payload = s.buf[s.r+5 : s.r+5+n]
		s.r += 5 + n
	} else {
		payload = make([]byte, n) // one-off, not retained
		k := copy(payload, s.buf[s.r+5:s.w])
		s.r, s.w = 0, 0
		if _, err := io.ReadFull(s.src, payload[k:]); err != nil {
			if err == io.EOF && k > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	m := recycled(t)
	if m == nil {
		m = newMessage(t)
	}
	if m == nil {
		return nil, &DecodeError{Type: t, Err: ErrUnknownType}
	}
	s.cur = reader{buf: payload}
	err := decodePayload(m, &s.cur)
	s.cur.buf = nil // a one-off payload buffer dies with its frame
	if err != nil {
		Release(m)
		return nil, err
	}
	return m, nil
}

// fill reads from src until need bytes are buffered from r on, first
// moving the buffered bytes to the front when need would not fit behind
// r. The first part of the need bytes is the part of the frame already
// read. If src ends first, fill reports io.EOF when nothing past that
// part has arrived and io.ErrUnexpectedEOF otherwise: what io.ReadFull
// reports when each part is read on its own.
func (s *Reader) fill(need, part int) error {
	if s.w-s.r >= need {
		return nil
	}
	if s.r+need > readBuffer {
		s.w = copy(s.buf[:], s.buf[s.r:s.w])
		s.r = 0
	}
	for s.w-s.r < need {
		n, err := s.src.Read(s.buf[s.w:])
		s.w += n
		if err != nil && s.w-s.r < need {
			if err == io.EOF && s.w-s.r > part {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Decode parses a payload for the given type tag into a freshly
// allocated message. Failures are returned as *DecodeError: the payload
// was already consumed from the stream, so the caller may skip the frame
// and keep reading.
func Decode(t MsgType, payload []byte) (Message, error) {
	m := newMessage(t)
	if m == nil {
		return nil, &DecodeError{Type: t, Err: ErrUnknownType}
	}
	if err := decodePayload(m, &reader{buf: payload}); err != nil {
		return nil, err
	}
	return m, nil
}

// newMessage allocates the zero message of a type tag (nil if unknown).
func newMessage(t MsgType) Message {
	switch t {
	case TSubmitJob:
		return &SubmitJob{}
	case TJobComplete:
		return &JobComplete{}
	case TReserve:
		return &Reserve{}
	case TOffer:
		return &Offer{}
	case TAssign:
		return &Assign{}
	case TRefuse:
		return &Refuse{}
	case TNoTask:
		return &NoTask{}
	case TTaskDone:
		return &TaskDone{}
	case THello:
		return &Hello{}
	case TKill:
		return &Kill{}
	}
	return nil
}

// decodePayload fills m from the cursor and applies the frame-local
// checks: a field error, a short payload, trailing bytes.
func decodePayload(m Message, rd *reader) error {
	if err := m.decode(rd); err != nil {
		return &DecodeError{Type: m.Type(), Err: err}
	}
	if rd.err != nil {
		return &DecodeError{Type: m.Type(), Err: rd.err}
	}
	if rd.remaining() != 0 {
		return &DecodeError{Type: m.Type(), Err: fmt.Errorf("%d trailing bytes", rd.remaining())}
	}
	return nil
}

// --- the free list -------------------------------------------------------

// free holds released messages by type tag: the seven fixed-size types,
// which are the per-frame traffic of a running cluster (probes, offers,
// replies, completion reports) and hold no references, so a recycled one
// needs no more than zeroing; JobComplete, which a client reads once a
// job and copies out (live.Client.WaitAny); and SubmitJob, whose phases,
// deps and replica groups a live scheduler would otherwise allocate for
// every job, and which keeps that storage for the next decode. Hello is
// rare; it is always allocated.
var free [TKill + 1]sync.Pool

// recycled returns a zeroed message of type t from the free list, or nil
// when the list is empty or the type is not a pooled one.
func recycled(t MsgType) Message {
	if int(t) >= len(free) {
		return nil
	}
	m, _ := free[t].Get().(Message)
	return m
}

// Release hands a message back for reuse by a later Reader.Read. Only
// the owner may call it (see Reader.Read and transport.Conn), once, and
// only when nothing references m any more: the struct is zeroed here, so
// a pointer kept past Release reads zeros — a loud failure — until a
// later frame overwrites it. Releasing is optional (not doing so costs
// the allocation it saves, never correctness) and a no-op for the types
// that are not pooled.
//
// A SubmitJob hands back its storage too: Phases keeps its backing at
// length zero, and a later decode writes over the Deps and Replicas of
// the phases in it. So nothing may keep a slice of a released
// submission either, and one whose phases share a slice (something a
// decoder never builds) must not be released.
func Release(m Message) {
	switch v := m.(type) {
	case *SubmitJob:
		*v = SubmitJob{Phases: v.Phases[:0]}
	case *JobComplete:
		*v = JobComplete{}
	case *Reserve:
		*v = Reserve{}
	case *Offer:
		*v = Offer{}
	case *Assign:
		*v = Assign{}
	case *Refuse:
		*v = Refuse{}
	case *NoTask:
		*v = NoTask{}
	case *TaskDone:
		*v = TaskDone{}
	case *Kill:
		*v = Kill{}
	default:
		return
	}
	free[m.Type()].Put(m)
}
