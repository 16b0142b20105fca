package live

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/wire"
)

func TestInjectorDeterministicPerSeed(t *testing.T) {
	cell := ChaosCell{Seed: 42, Rates: Rates{Drop: 0.2, Dup: 0.2, Delay: 0.3}}
	a, b := NewInjector(cell), NewInjector(cell)
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
	in := NewInjector(ChaosCell{Seed: 7, Rates: Rates{Drop: 0.3}})
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
	in := NewInjector(ChaosCell{
		Seed:    1,
		Rates:   Rates{},
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
	in := NewInjector(ChaosCell{Seed: 3})
	in.Partition()
	for i := 0; i < 10; i++ {
		if f := in.Judge(wire.TAssign); !f.Drop {
			t.Fatal("message crossed an active partition")
		}
	}
	in.Heal()
	in.Heal() // idempotent: second heal must not double-count
	if f := in.Judge(wire.TAssign); f.Drop {
		t.Fatal("message dropped after heal with zero rates")
	}
	st := in.Stats()
	if st.PartitionDrops != 10 || st.PartitionsHealed != 1 {
		t.Fatalf("partition stats %+v, want 10 drops and 1 heal", st)
	}
}
