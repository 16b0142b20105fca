package transport

import (
	"testing"
	"time"

	"github.com/hopper-sim/hopper/internal/wire"
)

func TestInjectorDeterministicPerSeed(t *testing.T) {
	cfg := FaultConfig{
		Seed:     42,
		Default:  Rates{Drop: 0.2, Dup: 0.2, Delay: 0.3},
		DelayMin: 0.001, DelayMax: 0.01,
	}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 1000; i++ {
		fa, fb := a.Judge(wire.TReserve), b.Judge(wire.TReserve)
		if fa != fb {
			t.Fatalf("fate %d diverged: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestInjectorRatesApproximatelyHonored(t *testing.T) {
	in := NewInjector(FaultConfig{Seed: 7, Default: Rates{Drop: 0.3}})
	const n = 20000
	for i := 0; i < n; i++ {
		in.Judge(wire.TOffer)
	}
	st := in.Stats()
	frac := float64(st.Dropped) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("drop fraction %.3f, want ~0.30", frac)
	}
	if st.Sent != n {
		t.Fatalf("Sent = %d, want %d", st.Sent, n)
	}
}

func TestInjectorPerTypeOverrides(t *testing.T) {
	in := NewInjector(FaultConfig{
		Seed:    1,
		Default: Rates{},
		PerType: map[wire.MsgType]Rates{wire.TReserve: {Drop: 1}},
	})
	for i := 0; i < 50; i++ {
		if f := in.Judge(wire.TReserve); !f.Drop {
			t.Fatal("Reserve should always drop under its override")
		}
		if f := in.Judge(wire.TOffer); f.Drop || f.Dup || f.Delay != 0 {
			t.Fatalf("Offer hit a fault with zero default rates: %+v", f)
		}
	}
}

func TestInjectorPartitionDropsAllThenHeals(t *testing.T) {
	in := NewInjector(FaultConfig{Seed: 3})
	in.Partition()
	if !in.Partitioned() {
		t.Fatal("Partitioned() false after Partition()")
	}
	for i := 0; i < 10; i++ {
		if f := in.Judge(wire.TAssign); !f.Drop {
			t.Fatal("message crossed an active partition")
		}
	}
	in.Heal()
	in.Heal() // idempotent: second heal must not double-count
	if in.Partitioned() {
		t.Fatal("still partitioned after Heal()")
	}
	if f := in.Judge(wire.TAssign); f.Drop {
		t.Fatal("message dropped after heal with zero rates")
	}
	st := in.Stats()
	if st.PartitionDrops != 10 || st.PartitionsHealed != 1 {
		t.Fatalf("partition stats %+v, want 10 drops and 1 heal", st)
	}
}

func TestFaultyDropAndDupOverPair(t *testing.T) {
	// Drop everything: nothing arrives.
	a, b := Pair(64)
	fa := WrapFaulty(a, NewInjector(FaultConfig{Seed: 5, Default: Rates{Drop: 1}}))
	for i := 0; i < 5; i++ {
		if err := fa.Send(&wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.SetRecvDeadline(time.Now().Add(50 * time.Millisecond))
	if m, err := b.Recv(); err == nil {
		t.Fatalf("dropped frame arrived: %#v", m)
	}
	a.Close()
	b.Close()

	// Duplicate everything: each send arrives exactly twice.
	c, d := Pair(64)
	fc := WrapFaulty(c, NewInjector(FaultConfig{Seed: 5, Default: Rates{Dup: 1}}))
	const sends = 4
	for i := 0; i < sends; i++ {
		if err := fc.Send(&wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[uint64]int{}
	d.SetRecvDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 2*sends; i++ {
		m, err := d.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		counts[m.(*wire.Ping).Nonce]++
	}
	for n, got := range counts {
		if got != 2 {
			t.Fatalf("nonce %d delivered %d times, want 2", n, got)
		}
	}
	c.Close()
	d.Close()
}

func TestFaultyDelayedFrameStillArrives(t *testing.T) {
	a, b := Pair(16)
	defer a.Close()
	defer b.Close()
	fa := WrapFaulty(a, NewInjector(FaultConfig{
		Seed:     9,
		Default:  Rates{Delay: 1},
		DelayMin: 0.005, DelayMax: 0.01,
	}))
	if err := fa.Send(&wire.Ping{Nonce: 77}); err != nil {
		t.Fatal(err)
	}
	b.SetRecvDeadline(time.Now().Add(2 * time.Second))
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("delayed frame never arrived: %v", err)
	}
	if m.(*wire.Ping).Nonce != 77 {
		t.Fatalf("wrong frame: %#v", m)
	}
	if st := fa.Injector().Stats(); st.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", st.Delayed)
	}
}

// TestFaultyHoldsACopyNotTheCallersMessage: Send is done with its
// message when it returns (the live nodes send every frame out of one
// scratch value), so a frame Faulty holds on a timer — a delayed one, or
// a duplicate's delayed second copy — must be a snapshot. Overwriting
// the caller's value before the timer fires must not change what
// arrives.
func TestFaultyHoldsACopyNotTheCallersMessage(t *testing.T) {
	sent := wire.Offer{JobID: 7, WorkerID: 199, Seq: 88, Refusable: true, FreeSlots: 3}
	next := wire.Offer{JobID: 8, WorkerID: 200, Seq: 89}
	for name, rates := range map[string]Rates{"delay": {Delay: 1}, "dup": {Dup: 1}} {
		t.Run(name, func(t *testing.T) {
			a, b := Pair(16)
			defer a.Close()
			defer b.Close()
			fa := WrapFaulty(a, NewInjector(FaultConfig{
				Seed: 9, Default: rates, DelayMin: 0.02, DelayMax: 0.03,
			}))
			o := sent
			if err := fa.Send(&o); err != nil {
				t.Fatal(err)
			}
			o = next // the node builds its next frame in the same value
			b.SetRecvDeadline(time.Now().Add(2 * time.Second))
			want := 1
			if rates.Dup > 0 {
				want = 2 // the in-order copy, then the held one
			}
			for i := 0; i < want; i++ {
				m, err := b.Recv()
				if err != nil {
					t.Fatalf("frame %d never arrived: %v", i, err)
				}
				if got := *m.(*wire.Offer); got != sent {
					t.Fatalf("frame %d carries what the sender wrote after Send returned:\n got  %+v\n want %+v", i, got, sent)
				}
			}
		})
	}
}
