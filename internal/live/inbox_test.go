package live

// Tests of the node loop's inbox: a FIFO per poster, where only reader
// goroutines ever wait (for their own frames, at inboxDepth) and a
// node's own posts, the shared wheel's among them, never do.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
)

// queued is how many inbox entries the loop has not taken yet, or has
// taken and not stepped.
func (l *loop) queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue) + len(l.taken) - l.next
}

// waitPop takes the oldest inbox entry, waiting up to d for one.
func waitPop(t *testing.T, l *loop, d time.Duration) envelope {
	t.Helper()
	give := time.NewTimer(d)
	defer give.Stop()
	for {
		if env, ok := l.pop(); ok {
			return env
		}
		select {
		case <-l.wake:
		case <-give.C:
			t.Fatalf("no entry reached the inbox in %v", d)
		}
	}
}

// frameOf is the sender and number of a streamConn frame.
func frameOf(t *testing.T, env envelope) (reader uint32, n uint64) {
	t.Helper()
	r, ok := env.msg.(*wire.Reserve)
	if !ok {
		t.Fatalf("inbox entry %T, want a reader's frame", env.msg)
	}
	return r.SchedulerID, r.JobID
}

// streamConn is an endless stream of frames from one peer: Recv returns
// Reserve frames numbered 0, 1, 2, ... at once, every one tagged with
// the stream's id.
type streamConn struct {
	transport.Conn
	id   uint32
	read atomic.Uint64
}

func (c *streamConn) Recv() (wire.Message, error) {
	return &wire.Reserve{SchedulerID: c.id, JobID: c.read.Add(1) - 1}, nil
}

func (c *streamConn) RemoteAddr() string { return "stream" }

// fifo checks that each reader's frames come out in the order it read
// them, across batches.
type fifo struct {
	t    *testing.T
	next map[uint32]uint64
}

func (f *fifo) take(env envelope) {
	f.t.Helper()
	reader, n := frameOf(f.t, env)
	if n != f.next[reader] {
		f.t.Fatalf("reader %d's frame %d came out where frame %d was due", reader, n, f.next[reader])
	}
	f.next[reader]++
}

// waitFrames waits until n reader frames are queued and not yet taken.
func waitFrames(t *testing.T, l *loop, n int) {
	t.Helper()
	for give := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		l.mu.Lock()
		got := l.frames
		l.mu.Unlock()
		if got == n {
			return
		}
		if got > n {
			t.Fatalf("%d reader frames queued, past the bound of %d", got, n)
		}
		if time.Now().After(give) {
			t.Fatalf("%d reader frames queued, want %d", got, n)
		}
	}
}

// TestInboxNeverBlocksTheWheel: a node whose loop is stalled with
// inboxDepth reader frames queued still takes its own timer's firing,
// without the wheel goroutine waiting on it, so another node's timer on
// the same wheel fires on time. The stalled node's entries then come out
// in the order they were posted: its frames, then its firing. On an
// inbox that made every poster wait at the bound, the wheel goroutine
// blocked on the stalled node's firing and no other timer fired again.
func TestInboxNeverBlocksTheWheel(t *testing.T) {
	wheel := testWheel(t)
	stalled := newLoop(nil, wheel, 1)
	t.Cleanup(stalled.stop)
	from := &peer{}
	for i := 0; i < inboxDepth; i++ {
		if !stalled.deliver(envelope{from: from, msg: &wire.Reserve{JobID: uint64(i)}}) {
			t.Fatal("a live node turned a reader's frame away")
		}
	}
	var stalledRuns int
	var own loopTimer
	stalled.bind(&own, func() { stalledRuns++ })
	stalled.arm(&own, time.Millisecond)

	running := newLoop(nil, wheel, 1)
	exited := make(chan struct{})
	go func() {
		running.run(func(env envelope) { env.msg.(event).run() }, func() {})
		close(exited)
	}()
	t.Cleanup(func() { running.stop(); <-exited })
	const d = 20 * time.Millisecond
	fired := make(chan time.Duration, 1)
	armedAt := time.Now()
	var other loopTimer
	running.bind(&other, func() { fired <- time.Since(armedAt) })
	onLoop(running, func() bool { running.arm(&other, d); return true })
	select {
	case took := <-fired:
		if took < d {
			t.Fatalf("the other node's timer fired after %v, before its %v deadline", took, d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the other node's timer never fired: the wheel is stalled behind a full inbox")
	}

	if n := stalled.queued(); n != inboxDepth+1 {
		t.Fatalf("the stalled node holds %d entries, want its %d frames and its firing", n, inboxDepth+1)
	}
	for i := 0; i < inboxDepth; i++ {
		env, _ := stalled.pop()
		if _, n := frameOf(t, env); n != uint64(i) {
			t.Fatalf("entry %d is frame %d", i, n)
		}
	}
	env, _ := stalled.pop()
	if env.msg != event(&own) {
		t.Fatalf("the entry after the frames is %T, want the stalled node's firing", env.msg)
	}
	env.msg.(event).run()
	if stalledRuns != 1 {
		t.Fatalf("the stalled node's timer ran %d times, want 1", stalledRuns)
	}
	if _, ok := stalled.pop(); ok {
		t.Fatal("the stalled node holds an entry nobody posted")
	}
}

// TestInboxReaderBackpressure: two readers fill a loop nobody runs up to
// inboxDepth frames between them and wait there, while the node's own
// post still goes in; each take lets them go on, and every reader's
// frames come out in the order it read them. A stop releases the waiting
// readers, and their goroutines end.
func TestInboxReaderBackpressure(t *testing.T) {
	l := newLoop(nil, &stillTimers{}, 1)
	conns := []*streamConn{{id: 0}, {id: 1}}
	var readers sync.WaitGroup
	for _, c := range conns {
		readers.Add(1)
		go func() {
			defer readers.Done()
			l.readFrom(&peer{conn: c})
		}()
	}
	exited := make(chan struct{})
	go func() { readers.Wait(); close(exited) }()
	t.Cleanup(l.stop)

	order := &fifo{t: t, next: map[uint32]uint64{}}
	waitFrames(t, l, inboxDepth)
	for give := time.Now().Add(10 * time.Second); conns[0].read.Load() == 0 || conns[1].read.Load() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(give) {
			t.Fatal("a reader never started")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a reader that would not wait
	waitFrames(t, l, inboxDepth)
	// Each reader holds at most the one frame it waits to queue.
	if read := conns[0].read.Load() + conns[1].read.Load(); read > inboxDepth+2 {
		t.Fatalf("the readers read %d frames with the inbox at its bound of %d", read, inboxDepth)
	}
	ev := &internalEvent{fn: func() {}}
	l.post(ev) // the node's own post does not wait at the bound
	if n := l.queued(); n != inboxDepth+1 {
		t.Fatalf("%d entries queued, want %d frames and the post", n, inboxDepth+1)
	}

	for batch := 0; batch < 3; batch++ {
		// The first pop takes the whole queue, so the readers go on and
		// fill the next batch while this one is stepped.
		n := l.queued()
		for i := 0; i < n; i++ {
			env, ok := l.pop()
			if !ok {
				t.Fatalf("batch %d: %d of %d entries", batch, i, n)
			}
			if env.msg == event(ev) {
				continue
			}
			order.take(env)
		}
		waitFrames(t, l, inboxDepth)
	}
	for _, c := range conns {
		// A reader waiting at a take is owed a slot in the next batch,
		// however fast the other one refills the inbox.
		if order.next[c.id] == 0 {
			t.Fatalf("reader %d queued nothing in three batches", c.id)
		}
	}

	l.stop()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("stop left a reader waiting at the bound")
	}
	if l.deliver(envelope{from: &peer{}, msg: &wire.Reserve{}}) {
		t.Fatal("a stopped node queued a reader's frame")
	}
}

// TestLoopPostStepAllocatesNothing pins the inbox's cycle on a warm loop,
// a few events posted and each taken and stepped, at zero allocations;
// the buffers carved at build, grown once to the batch, serve every
// turn after that.
func TestLoopPostStepAllocatesNothing(t *testing.T) {
	l := newLoop(nil, &stillTimers{}, 1)
	runs := 0
	evs := make([]internalEvent, 3*inboxCarve)
	for i := range evs {
		evs[i].fn = func() { runs++ }
	}
	cycle := func() {
		for i := range evs {
			l.post(&evs[i])
		}
		for env, ok := l.pop(); ok; env, ok = l.pop() {
			env.msg.(event).run()
		}
	}
	// Both buffers grow past their carve once, on the first two turns.
	cycle()
	cycle()
	runs = 0
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a post→step cycle allocates %.2f/op once warm, want 0", avg)
	}
	if want := 201 * len(evs); runs != want { // AllocsPerRun runs one more
		t.Fatalf("%d events ran, want %d", runs, want)
	}
}

// TestPumpAllocatesNothing pins the virtual cluster's pump on a warm
// worker: a copy placed, its timer fired, and the pump stepping the
// finish event into a TaskDone, at zero allocations.
func TestPumpAllocatesNothing(t *testing.T) {
	r := newCopyRig(t)
	reserve := &wire.Reserve{JobID: 5, SchedulerID: 0, VirtualSize: 3, RemTasks: 1}
	assign := &wire.Assign{Duration: 1}
	cycle := func() {
		seq := r.place(reserve, assign)
		r.fire(seq)
		if !pump(r.w.loop, r.w.step) || r.conn.sent() != wire.TTaskDone || r.w.out.taskDone.Seq != seq {
			t.Fatalf("the pump finished copy %d into a %s for %d", seq, r.conn.sent(), r.w.out.taskDone.Seq)
		}
		if pump(r.w.loop, r.w.step) {
			t.Fatal("a second pump found entries nobody posted")
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a pump allocates %.2f/op once warm, want 0", avg)
	}
}

// BenchmarkLoopPostStep is the cost of one entry's trip through a
// running loop: posted from one or from eight goroutines, taken and
// stepped by the loop's own.
func BenchmarkLoopPostStep(b *testing.B) {
	for _, posters := range []int{1, 8} {
		b.Run(fmt.Sprintf("posters=%d", posters), func(b *testing.B) {
			l := newLoop(nil, &stillTimers{}, 1)
			var stepped atomic.Int64
			all := make(chan struct{})
			ev := &internalEvent{fn: func() {
				if stepped.Add(1) == int64(b.N) {
					close(all)
				}
			}}
			exited := make(chan struct{})
			go func() {
				l.run(func(env envelope) { env.msg.(event).run() }, func() {})
				close(exited)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < posters; p++ {
				n := b.N / posters
				if p < b.N%posters {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						l.post(ev)
					}
				}()
			}
			wg.Wait()
			<-all
			b.StopTimer()
			l.stop()
			<-exited
		})
	}
}
