package live

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/wire"
)

// This file is the wire <-> protocol-core bridge: the only place where
// core replies are serialized into frames and frames are rehydrated into
// core replies. The Seq every frame here carries is the worker core's
// number for the offer (protocol.WAction.Seq), so a reply needs no
// table on this side to find its round. TestBridgeRoundTrip carries every
// reply shape the scheduler core returns through render, codec and
// rehydration, so a field the mapping drops fails there.

// replyFrames is the scratch a scheduler renders its replies into: one
// value per reply type, overwritten by the next reply of that type. The
// node loop is single-threaded and transport.Conn.Send is done with a
// message when it returns, so a reply costs no allocation.
type replyFrames struct {
	assign wire.Assign
	refuse wire.Refuse
	noTask wire.NoTask
}

// wireFromReply renders a scheduler core's reply as the frame to send
// back for offer sequence seq. dur is the drawn service time for task
// hand-outs (ignored otherwise). The frame lives in f and is valid until
// f renders another reply.
func (f *replyFrames) wireFromReply(rep protocol.Reply, seq uint64, dur float64) wire.Message {
	switch {
	case rep.HasTask:
		f.assign = wire.Assign{
			JobID:       uint64(rep.Job),
			Seq:         seq,
			Phase:       uint16(rep.Phase),
			TaskIndex:   uint32(rep.TaskIndex),
			Speculative: rep.Spec,
			Duration:    dur,
			VirtualSize: rep.VS,
			RemTasks:    uint32(rep.RemTask),
		}
		return &f.assign
	case rep.Refused:
		f.refuse = wire.Refuse{
			JobID:       uint64(rep.Job),
			Seq:         seq,
			NoDemand:    rep.NoDemand,
			HasUnsat:    rep.HasUnsat,
			UnsatJobID:  uint64(rep.UnsatJob),
			UnsatVS:     rep.UnsatVS,
			VirtualSize: rep.VS,
			RemTasks:    uint32(rep.RemTask),
		}
		return &f.refuse
	case rep.JobDone:
		f.noTask = wire.NoTask{JobID: uint64(rep.Job), Seq: seq, JobDone: true}
		return &f.noTask
	default:
		f.noTask = wire.NoTask{
			JobID: uint64(rep.Job), Seq: seq, NoDemand: rep.NoDemand,
			VirtualSize: rep.VS, RemTasks: uint32(rep.RemTask),
		}
		return &f.noTask
	}
}

// replyFromWire rehydrates a scheduler's frame into the core reply the
// worker round expects. from is the replying scheduler (connection
// identity); it doubles as the unsatisfied job's owner — a scheduler
// only ever piggybacks its own jobs.
func replyFromWire(m wire.Message, from protocol.SchedID) (rep protocol.Reply, seq uint64, ok bool) {
	switch t := m.(type) {
	case *wire.Assign:
		return protocol.Reply{
			HasTask:   true,
			Job:       cluster.JobID(t.JobID),
			Phase:     int(t.Phase),
			TaskIndex: int(t.TaskIndex),
			Spec:      t.Speculative,
			From:      from,
			VS:        t.VirtualSize,
			RemTask:   int(t.RemTasks),
		}, t.Seq, true
	case *wire.Refuse:
		return protocol.Reply{
			Job:      cluster.JobID(t.JobID),
			From:     from,
			Refused:  true,
			NoDemand: t.NoDemand,
			HasUnsat: t.HasUnsat,
			UnsatJob: cluster.JobID(t.UnsatJobID),
			UnsatVS:  t.UnsatVS,
			VS:       t.VirtualSize,
			RemTask:  int(t.RemTasks),
		}, t.Seq, true
	case *wire.NoTask:
		return protocol.Reply{
			Job:      cluster.JobID(t.JobID),
			From:     from,
			JobDone:  t.JobDone,
			NoDemand: t.NoDemand,
			VS:       t.VirtualSize,
			RemTask:  int(t.RemTasks),
		}, t.Seq, true
	}
	return protocol.Reply{}, 0, false
}
