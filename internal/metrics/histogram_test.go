package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins the log-linear bucket mapping: every
// bucket's lower edge must map back into that bucket, and bucketOf must
// be monotone in the duration.
func TestHistogramBucketEdges(t *testing.T) {
	// Below 8µs (the first histSubBits octaves) sub-bucket edges are
	// fractional microseconds, which the µs-granular record path can't
	// resolve — exact round-tripping starts at bucket 24.
	for i := histSubBits * histSubBuckets; i < histBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)=%v) = %d", i, lo, got)
		}
	}
	for i := 0; i < histSubBits*histSubBuckets; i++ {
		if got := bucketOf(bucketLow(i)); got > i {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d, must never exceed i", i, got)
		}
	}
	prev := 0
	for us := 1; us < 1<<20; us = us*9/8 + 1 {
		b := bucketOf(time.Duration(us) * time.Microsecond)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %dµs: %d < %d", us, b, prev)
		}
		prev = b
	}
	if bucketOf(0) != 0 || bucketOf(500*time.Nanosecond) != 0 {
		t.Fatal("sub-µs durations must land in bucket 0")
	}
	if bucketOf(100*time.Hour) != histBuckets-1 {
		t.Fatal("off-scale durations must saturate into the last bucket")
	}
}

// TestHistogramQuantileAccuracy records a known distribution and checks
// the quantiles land within one bucket width (≤12.5%) of exact.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal-ish spread over ~3 decades, like scheduling latency.
		us := 100 * (1 + rng.ExpFloat64()*20)
		samples = append(samples, us)
		h.Record(time.Duration(us) * time.Microsecond)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := float64(h.Quantile(q)) / float64(time.Microsecond)
		if got > exact {
			t.Errorf("p%g = %.1fµs overshoots exact %.1fµs", q*100, got, exact)
		}
		if got < exact*0.85 {
			t.Errorf("p%g = %.1fµs undershoots exact %.1fµs by more than a bucket", q*100, got, exact)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("Count = %d, want 20000", h.Count())
	}
}

// TestHistogramConcurrentRecord hammers Record from many goroutines;
// with -race this doubles as the lock-free-correctness check.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const gs, per = 8, 5000
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(1+(g*per+i)%1000) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != gs*per {
		t.Fatalf("Count = %d, want %d", h.Count(), gs*per)
	}
}

// TestHistogramZero pins empty-histogram behavior.
func TestHistogramZero(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("zero histogram must report 0")
	}
}

// TestLatencyTableRenders smoke-checks the fixed-width table.
func TestLatencyTableRenders(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(1+i) * time.Millisecond)
	}
	out := LatencyTable([]NamedHist{{"submit->first-place", &h}})
	for _, want := range []string{"p50", "p99", "p999", "submit->first-place", "100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkHistogramRecord pins the allocation-free record path.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%100000) * time.Microsecond)
	}
}
