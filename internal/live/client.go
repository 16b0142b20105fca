package live

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// Client submits jobs to a live scheduler and waits for completions.
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

// WaitJob blocks until the given job completes or the timeout elapses.
// Completions for other jobs received while waiting are discarded (use
// WaitAny to multiplex). A draining scheduler fails its jobs instead of
// dropping them: check JobComplete.Aborted.
//
// On timeout the connection is closed and the Client is no longer
// usable: the deadline may have expired mid-frame, leaving the stream
// position undefined (see transport.Conn.SetRecvDeadline).
func (c *Client) WaitJob(jobID uint64, timeout time.Duration) (*wire.JobComplete, error) {
	// A real receive deadline, not a between-frames check: a silent
	// connection must still time out.
	if err := c.conn.SetRecvDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	defer c.conn.SetRecvDeadline(time.Time{})
	for {
		m, err := c.conn.Recv()
		if err != nil {
			if errors.Is(err, wire.ErrUnknownType) {
				continue // newer peer's message type; stream still in sync
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// The deadline may have cut a frame in half; the stream
				// position is undefined, so the connection is done.
				c.conn.Close()
				return nil, fmt.Errorf("live: timeout waiting for job %d (connection closed)", jobID)
			}
			return nil, err
		}
		if jc, ok := m.(*wire.JobComplete); ok && jc.JobID == jobID {
			return jc, nil
		}
	}
}

// WaitAny blocks for the next job completion.
func (c *Client) WaitAny() (*wire.JobComplete, error) {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			if errors.Is(err, wire.ErrUnknownType) {
				continue // newer peer's message type; stream still in sync
			}
			return nil, err
		}
		if jc, ok := m.(*wire.JobComplete); ok {
			return jc, nil
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
