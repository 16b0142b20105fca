package live

import (
	"errors"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// Client submits jobs to a live scheduler and reads its completions;
// Drive is the load driver built on it.
type Client struct {
	conn transport.Conn
}

// NewClient dials a scheduler.
func NewClient(addr string) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(conn)
}

// NewClientConn wraps a pre-established connection (a test's
// transport.Pair end).
func NewClientConn(conn transport.Conn) (*Client, error) {
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient}); err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Submit sends a job definition.
func (c *Client) Submit(job *wire.SubmitJob) error {
	return c.conn.Send(job)
}

// WaitAny blocks for the next job completion. It returns a copy and
// hands the frame back to the wire free list, so a warm client reads
// completions without allocating.
func (c *Client) WaitAny() (wire.JobComplete, error) {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			if errors.Is(err, wire.ErrUnknownType) {
				continue // newer peer's message type; stream still in sync
			}
			return wire.JobComplete{}, err
		}
		if jc, ok := m.(*wire.JobComplete); ok {
			done := *jc
			wire.Release(jc)
			return done, nil
		}
	}
}

// SimpleJob builds a single-phase SubmitJob with the given task count and
// mean duration.
func SimpleJob(id uint64, name string, tasks int, meanDur float64) *wire.SubmitJob {
	return &wire.SubmitJob{
		JobID: id,
		Name:  name,
		Phases: []wire.PhaseSpec{
			{MeanDur: meanDur, NumTasks: uint32(tasks)},
		},
	}
}
