package transport

import (
	"runtime"
	"testing"

	"github.com/hopper-sim/hopper/internal/wire"
)

// BenchmarkConnThroughput measures one-way small-frame throughput — the
// protocol's dominant traffic shape (Reserve is the most frequent
// message) — over a loopback TCP socket. The writes/msg metric is the
// batching win: a flush per frame would read 1.0, the batched flush
// coalesces every frame that arrives within the flush deadline into one
// Write. The allocs/msg metric is end-to-end (encode, framing, decode,
// every goroutine): the outbox free list keeps the send half off it,
// and the receiver releasing each frame, as the node loops do, keeps
// the receive half off it too.
func BenchmarkConnThroughput(b *testing.B) {
	sender, receiver, counting := countedPair(b)
	msg := &wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			m, err := receiver.Recv()
			if err != nil {
				done <- err
				return
			}
			wire.Release(m)
		}
		done <- nil
	}()
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/msg")
	b.ReportMetric(float64(counting.writes.Load())/float64(b.N), "writes/msg")
	frame := wire.Append(nil, msg)
	b.SetBytes(int64(len(frame)))
}

// BenchmarkConnPingPong measures request/reply latency (offer -> assign
// round trip shape) over a loopback TCP socket. It pays the flush
// deadline on both legs — that is the documented trade: a lone
// latency-critical round trip costs up to 2×DefaultFlushDelay more,
// while sustained traffic gets an order of magnitude fewer syscalls.
func BenchmarkConnPingPong(b *testing.B) {
	client, server := pair(b)
	go func() {
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			p := m.(*wire.Kill)
			if err := server.Send(&wire.Kill{Seq: p.Seq}); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(&wire.Kill{Seq: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnBurst measures the probe fan-out shape: bursts of 8
// frames enqueued back to back, receiver draining concurrently. A flush
// per frame reads 1.0 writes/msg; PR 10 measured the batched writer at
// ≥2x its msgs/sec and ≥5x fewer writes/msg (DESIGN.md section 12).
func BenchmarkConnBurst(b *testing.B) {
	const burst = 8
	sender, receiver, counting := countedPair(b)

	msg := &wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	total := b.N * burst
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, err := receiver.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := sender.Send(msg); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(counting.writes.Load())/float64(total), "writes/msg")
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkConnFanout opens 64 fresh connections per iteration and sends
// one 8-frame burst on each, the shape of a scheduler's probe fan-out
// reaching workers it has not written to since boot. allocs/conn and
// B/conn count the bursts' sends and receives, not the connections'
// set-up: an outbox that grows from nil on every connection shows here
// (8.0 allocs/conn when each connection grew its own), and one drawn
// from the warm free list does not. Nothing else remains: the flush
// timer is built with the connection and re-armed in place, and the
// flush goroutine it starts comes from the runtime's free list (0.00
// allocs/conn; 1.0 when every connection ran a writer goroutine whose
// first time.Sleep made its runtime timer).
func BenchmarkConnFanout(b *testing.B) {
	const conns, burst = 64, 8
	msg := &wire.Reserve{JobID: 7, SchedulerID: 3, VirtualSize: 61.5, RemTasks: 46}
	senders := make([]Conn, conns)
	receivers := make([]Conn, conns)
	var mallocs, bytes uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range senders {
			senders[k], receivers[k] = Pair(0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, s := range senders {
			for j := 0; j < burst; j++ {
				if err := s.Send(msg); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, r := range receivers {
			for j := 0; j < burst; j++ {
				m, err := r.Recv()
				if err != nil {
					b.Fatal(err)
				}
				wire.Release(m)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		for k := range senders {
			senders[k].Close()
			receivers[k].Close()
		}
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*conns), "allocs/conn")
	b.ReportMetric(float64(bytes)/float64(b.N*conns), "B/conn")
}
