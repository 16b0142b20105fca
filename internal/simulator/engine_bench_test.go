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

// census replays the event mix counted on the decentralized replay
// (DESIGN.md §2, "Lanes"): per fired copy finish about eleven offers and
// eleven replies and six speculation ticks, over a heap of some 3,200
// finish events. Each of 1,600 slots cycles through a chain of
// offer/reply round trips to random schedulers — a 0.5 ms hop out,
// queued behind the scheduler's 20 µs serial processing, a 0.5 ms hop
// back — until one reply in eleven places a copy. The copy's finish is
// 1–400 s away, and a losing twin due before it is posted and canceled
// at once; the finish starts the slot's next chain. Each of 50
// schedulers ticks every second. With lanes set the hops and ticks go
// through three lanes as the adapter posts them; otherwise every event
// goes on the heap.
type census struct {
	e     *Engine
	rng   *rand.Rand
	busy  []Time
	slots []censusSlot
	// toWorker, toSched and ticks are nil when the mix runs on the heap
	// alone.
	toWorker, toSched, ticks *Lane

	onOffer, onReply, onFinish func(any)
}

type censusSlot struct {
	live, twin Event
}

const (
	censusHop   = 0.0005
	censusServe = 20e-6
)

func newCensus(lanes bool) *census {
	e := New(1)
	c := &census{e: e, rng: rand.New(rand.NewSource(7)), busy: make([]Time, 50), slots: make([]censusSlot, 1600)}
	if lanes {
		c.toWorker, c.toSched, c.ticks = e.NewLane(), e.NewLane(), e.NewLane()
	}
	c.onOffer = func(arg any) { c.post(c.toWorker, e.Now()+censusHop, c.onReply, arg) }
	c.onReply = func(arg any) {
		if c.rng.Intn(11) == 0 {
			c.place(arg.(*censusSlot), e.Now(), 1+399*c.rng.Float64())
		} else {
			c.offer(arg)
		}
	}
	c.onFinish = c.offer
	for i := range c.slots {
		c.place(&c.slots[i], 0, 400*c.rng.Float64())
	}
	for range c.busy {
		var tick func()
		tick = func() {
			if c.ticks != nil {
				c.ticks.PostAfter(1, tick)
			} else {
				e.PostAfter(1, tick)
			}
		}
		e.PostAfter(c.rng.Float64(), tick)
	}
	return c
}

func (c *census) post(l *Lane, t Time, fn func(any), arg any) {
	if l != nil {
		l.PostArg(t, fn, arg)
	} else {
		c.e.PostArg(t, fn, arg)
	}
}

// offer sends the slot's offer to a random scheduler's serial queue.
func (c *census) offer(arg any) {
	s := c.rng.Intn(len(c.busy))
	at := max(c.e.Now()+censusHop, c.busy[s]) + censusServe
	c.busy[s] = at
	c.post(c.toSched, at, c.onOffer, arg)
}

// place arms the slot's finish d seconds after now and a canceled twin
// due before it, so the twin's key has left the heap by the time the
// finish fires and the slot places again.
func (c *census) place(sl *censusSlot, now, d Time) {
	c.e.AtArg(&sl.live, now+d, c.onFinish, sl)
	c.e.AtArg(&sl.twin, now+d*c.rng.Float64(), c.onFinish, sl)
	sl.twin.Cancel()
}

// BenchmarkEngineLanes times the census mix through lanes against the
// same mix on the heap alone. Both fire the same events in the same
// order; ns/event is the comparison.
func BenchmarkEngineLanes(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lanes bool
	}{{"heap", false}, {"lanes", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var fired uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := newCensus(bc.lanes)
				b.StartTimer()
				c.e.RunUntil(900)
				fired += c.e.Fired
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
			b.ReportMetric(float64(fired)/float64(b.N), "events/op")
		})
	}
}
