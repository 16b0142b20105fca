package simulator

import (
	"math/rand"
	"testing"
)

// delayMix draws the delay of a firing event's follow-ups and how many of
// them to post, all at that one instant.
type delayMix func(rng *rand.Rand, fired int) (d Time, posts int)

// uniformMix replaces each fired event with one follow-up U[0.01, 1.01] s
// ahead: a steady population spread evenly over about a second.
func uniformMix(rng *rand.Rand, _ int) (Time, int) {
	return 0.01 + rng.Float64(), 1
}

// burstyMix is the decentralized adapter's traffic: a constant 0.5 ms
// network hop, scheduler-bound messages 0.52–0.6 ms out (hop plus serial
// processing), one event in fifty a task completion 1–30 s away, and
// every 4000th firing a same-instant burst of 200 posts (a probe batch).
// One firing in twenty posts nothing, which offsets the bursts and holds
// the population near its initial size.
func burstyMix(rng *rand.Rand, fired int) (Time, int) {
	switch {
	case fired%4000 == 0:
		return 0.0005, 200
	case rng.Intn(20) == 0:
		return 0, 0
	case rng.Intn(50) == 0:
		return 1 + 29*rng.Float64(), 1
	case rng.Intn(2) == 0:
		return 0.0005, 1
	default:
		return 0.00052 + 0.00008*rng.Float64(), 1
	}
}

// churn drives a self-sustaining simulation: n initial events, each
// firing posts follow-ups drawn from mix, until total events have been
// scheduled; the queue then runs dry.
func churn(e *Engine, n, total int, mix delayMix) {
	rng := rand.New(rand.NewSource(7))
	fired := 0
	var tick func()
	tick = func() {
		fired++
		d, posts := mix(rng, fired)
		for ; posts > 0 && fired+e.Pending() < total; posts-- {
			e.PostAfter(d, tick)
		}
	}
	for i := 0; i < n; i++ {
		e.PostAfter(rng.Float64(), tick)
	}
	e.Run()
}

// BenchmarkEngineChurn times 200k events through the queue under two
// delay mixes. It is a working aid, not the arbiter: a queue design is
// judged on simulator.queue_ns_per_op and the three sim workloads of
// BENCHMARK.json, whose traffic the uniform mix looks nothing like.
func BenchmarkEngineChurn(b *testing.B) {
	for _, bc := range []struct {
		name string
		mix  delayMix
	}{{"uniform", uniformMix}, {"bursty", burstyMix}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				churn(New(1), 4000, 200000, bc.mix)
			}
		})
	}
}

// BenchmarkEnginePost measures zero-handle scheduling throughput.
func BenchmarkEnginePost(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(Time(i%1000), fn)
		if e.Pending() >= 8192 {
			b.StopTimer()
			e.Drain()
			e.now = 0
			b.StartTimer()
		}
	}
}

// BenchmarkEngineAt measures handle-returning scheduling (one small
// allocation per event, the handle). At/After are now only the
// decentralized worker's retry timer; copies post through AtArg.
func BenchmarkEngineAt(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(i%1000), fn)
		if e.Pending() >= 8192 {
			b.StopTimer()
			e.Drain()
			e.now = 0
			b.StartTimer()
		}
	}
}

// BenchmarkEngineMixedCancel times the pattern the executor uses for
// copies: every event is posted with AtArg under a handle the caller
// owns (a copy's embedded finish event), and half are canceled before
// they fire (the losers of speculative races). The engine and the
// handles are reused, so it must report 0 allocs.
func BenchmarkEngineMixedCancel(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	hs := make([]Event, 50000)
	fn := func(any) {}
	round := func() {
		base := e.Now()
		for k := range hs {
			e.AtArg(&hs[k], base+Time(k)*0.01, fn, nil)
			if k%2 == 1 {
				hs[k-1].Cancel()
			}
		}
		e.Run()
	}
	round()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkEnginePostArg measures the payload-carrying post: one shared
// dispatch function plus a pooled argument, the path the decentralized
// adapter's message events ride. Like Post it must stay allocation-free.
func BenchmarkEnginePostArg(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func(any) {}
	arg := &struct{ n int }{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PostArg(Time(i%1000), fn, arg)
		if e.Pending() >= 8192 {
			b.StopTimer()
			e.Drain()
			e.now = 0
			b.StartTimer()
		}
	}
}
