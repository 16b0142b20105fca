package live

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// TestWaitAnyAllocatesNothing: a warm client reads a completion over a
// loopback pair without allocating, since WaitAny copies the frame out
// and hands it back to the wire free list for the next read.
func TestWaitAnyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of Puts under -race, so the wire free list misses by design")
	}
	a, b := transport.Pair(0)
	defer b.Close()
	c, err := NewClientConn(a)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := b.Recv(); err != nil { // the client's Hello
		t.Fatal(err)
	}
	sent := &wire.JobComplete{JobID: 7, Completion: 2.5, TasksRun: 3, SpecCopies: 1}
	cycle := func() {
		if err := b.Send(sent); err != nil {
			t.Fatal(err)
		}
		got, err := c.WaitAny()
		if err != nil || got != *sent {
			t.Fatalf("read %+v (%v), sent %+v", got, err, *sent)
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("reading a completion allocates %.0f objects once warm, want 0", allocs)
	}
}
