package live

import (
	"math"
	"reflect"
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/wire"
)

// TestBridgeRoundTrip carries every reply shape the scheduler core
// returns — HandleOffer's and HandleGetTask's hand-outs, noTask's
// refusals and non-refusable answer, the Sparrow empty pull, JobDone —
// along the path a live reply takes: rendered into a frame
// (wireFromReply), encoded, decoded, and rehydrated for the worker core
// (replyFromWire). What comes out is what went in, less the in-process
// Task pointer and with the replying scheduler as From, under the same
// offer number; an Assign keeps its service time. The values sit where a
// lossy mapping would show: virtual sizes that are not dyadic fractions,
// and indices and counts at the top of their wire widths.
func TestBridgeRoundTrip(t *testing.T) {
	const from, dur = protocol.SchedID(5), 7.3
	task := &cluster.Task{}
	rows := []struct {
		name string
		rep  protocol.Reply
	}{
		{"hand-out", protocol.Reply{HasTask: true, Task: task, Job: math.MaxInt64, Phase: math.MaxUint16,
			TaskIndex: math.MaxUint32, From: from, VS: 1.0 / 3, RemTask: math.MaxUint32}},
		{"speculative hand-out", protocol.Reply{HasTask: true, Task: task, Job: 9, Phase: 2, TaskIndex: 17,
			Spec: true, From: from, VS: 0.1, RemTask: 4}},
		{"refusal, unsatisfied job and no demand", protocol.Reply{Job: 9, From: from, Refused: true, NoDemand: true,
			HasUnsat: true, UnsatJob: math.MaxInt64 - 1, UnsatVS: 2.0 / 7, VS: 0.3, RemTask: math.MaxUint32}},
		{"bare refusal", protocol.Reply{Job: 9, From: from, Refused: true, VS: 1.1, RemTask: 1}},
		{"non-refusable no task", protocol.Reply{Job: 9, From: from, NoDemand: true, VS: 5.0 / 3, RemTask: 12}},
		{"Sparrow empty pull", protocol.Reply{Job: 9, From: from, RemTask: 3}},
		{"job done", protocol.Reply{Job: 9, From: from, JobDone: true}},
	}
	var frames replyFrames
	for i, row := range rows {
		seq := math.MaxUint64 - uint64(i)
		buf := wire.Append(nil, frames.wireFromReply(row.rep, seq, dur))
		m, err := wire.Decode(wire.MsgType(buf[4]), buf[5:])
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if a, ok := m.(*wire.Assign); ok != row.rep.HasTask || ok && a.Duration != dur {
			t.Fatalf("%s: decoded %T %+v, want an Assign of duration %v exactly for a hand-out", row.name, m, m, dur)
		}
		got, gotSeq, ok := replyFromWire(m, from)
		want := row.rep
		want.Task = nil
		if !ok || gotSeq != seq || got != want {
			t.Fatalf("%s: came back as %+v under seq %d (ok %v), want %+v under %d", row.name, got, gotSeq, ok, want, seq)
		}
	}
	// A field no row sets would pass the comparison even if dropped.
	typ := reflect.TypeOf(protocol.Reply{})
	for f := 0; f < typ.NumField(); f++ {
		set := typ.Field(f).Name == "Task"
		for _, row := range rows {
			set = set || !reflect.ValueOf(row.rep).Field(f).IsZero()
		}
		if !set {
			t.Errorf("no row sets Reply.%s: the round trip cannot tell whether the bridge carries it", typ.Field(f).Name)
		}
	}
}
