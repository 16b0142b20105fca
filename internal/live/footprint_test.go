package live

// The footprint of a booted cluster: what an idle node and an idle
// connection end cost the process. DESIGN.md §12 calls the connection
// ends the other multiplier: a cluster holds two per worker per
// scheduler.

import (
	"runtime"
	"testing"
	"time"
)

// TestBootedClusterFootprint boots 2 schedulers and 200 workers and
// lets them go idle. Then the process runs a goroutine per node (its
// loop) and per connection end (its reader) and a few more (the wheel,
// the schedulers' accept loops), and no writer; and the heap in use per
// connection end, after a GC, is what the nodes and the idle sockets
// hold. A 2-core container with Go 1.24 measured 1,005 goroutines above
// the test's own and 4.8 KB per end here, against 1,805 and 9.6 KB when
// every end ran a writer goroutine and read through its own 4 KB
// buffer.
func TestBootedClusterFootprint(t *testing.T) {
	const scheds, workers = 2, 200
	const nodes, ends = scheds + workers, 2 * scheds * workers
	const others = 8 // the wheel and the accept loops, with room to spare
	const perEndBound = 6 << 10
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g0 := runtime.NumGoroutine()
	lc, err := StartLocalCluster(LocalClusterConfig{Schedulers: scheds, Workers: workers, Slots: 4, TimeScale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)

	// Every reader has started and every Hello has been flushed once the
	// count sits between the floor and the bound; a writer per end never
	// lets it fall that far.
	var g int
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g = runtime.NumGoroutine() - g0
		if g >= nodes+ends && g <= nodes+ends+others {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("the idle cluster runs %d goroutines, want %d nodes + %d connection ends + at most %d others",
				g, nodes, ends, others)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEnd := float64(after.HeapInuse) - float64(before.HeapInuse)
	perEnd /= ends
	t.Logf("%d goroutines, %.0f B of heap in use per connection end, stacks %.1f MB", g, perEnd, float64(after.StackInuse)/(1<<20))
	if perEnd > perEndBound {
		t.Fatalf("the idle cluster holds %.0f B of heap per connection end, want at most %d", perEnd, perEndBound)
	}
}
