package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParetoMoments(t *testing.T) {
	p := NewPareto(2, 1.5)
	if got, want := p.Mean(), 6.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := p.Median(), 2*math.Pow(2, 1/1.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("Median = %v, want %v", got, want)
	}
	if got := NewPareto(1, 0.9).Mean(); !math.IsInf(got, 1) {
		t.Errorf("Mean with alpha<=1 = %v, want +Inf", got)
	}
}

func TestParetoCDFQuantileInverse(t *testing.T) {
	p := NewPareto(3, 1.3)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		x := p.Quantile(q)
		if got := p.CDF(x); math.Abs(got-q) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
	if p.CDF(2.999) != 0 {
		t.Error("CDF below xm should be 0")
	}
}

func TestParetoSampleStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPareto(1, 1.8) // mean = 2.25
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		v := p.Sample(rng)
		if v < 1 {
			t.Fatalf("sample %v below xm", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-p.Mean()) > 0.1 {
		t.Errorf("sample mean %v, want ~%v", mean, p.Mean())
	}
}

func TestSampleMeanParameterization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += SampleMean(rng, 10, 1.7)
	}
	if mean := sum / float64(n); math.Abs(mean-10) > 0.5 {
		t.Errorf("SampleMean mean = %v, want ~10", mean)
	}
}

func TestInvalidParetoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive parameters")
		}
	}()
	NewPareto(0, 1)
}

func TestTailEstimatorRecoversAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, alpha := range []float64{1.2, 1.5, 1.8} {
		est := NewTailEstimator(1, 1.5, 10)
		p := NewPareto(1, alpha)
		for i := 0; i < 50000; i++ {
			est.Observe(p.Sample(rng))
		}
		if got := est.Estimate(); math.Abs(got-alpha) > 0.05 {
			t.Errorf("alpha=%v: estimate %v", alpha, got)
		}
	}
}

func TestTailEstimatorPriorBeforeMinSamples(t *testing.T) {
	est := NewTailEstimator(1, 1.42, 100)
	for i := 0; i < 99; i++ {
		est.Observe(2)
	}
	if got := est.Estimate(); got != 1.42 {
		t.Errorf("estimate before minSamples = %v, want prior", got)
	}
	est.Observe(2)
	if got := est.Estimate(); got == 1.42 {
		t.Error("estimate after minSamples should leave the prior")
	}
}

func TestTailEstimatorClamps(t *testing.T) {
	est := NewTailEstimator(1, 1.5, 1)
	// All observations barely above xm -> raw alpha huge -> clamped to 2.
	for i := 0; i < 100; i++ {
		est.Observe(1.0000001)
	}
	if got := est.Estimate(); got != 2.0 {
		t.Errorf("estimate = %v, want clamp at 2", got)
	}
}

func TestClampBeta(t *testing.T) {
	if ClampBeta(math.NaN()) != 1.05 {
		t.Error("NaN should clamp low")
	}
	if ClampBeta(0.3) != 1.05 || ClampBeta(3) != 2.0 || ClampBeta(1.5) != 1.5 {
		t.Error("clamp bounds wrong")
	}
}

func TestSummaryPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Percentile(50)) || !math.IsNaN(s.Min()) {
		t.Error("empty summary should return NaN")
	}
}

func TestSummaryCDF(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 2, 3, 10} {
		s.Add(v)
	}
	got := s.CDF([]float64{0, 1, 2, 5, 10})
	want := []float64{0, 0.2, 0.6, 0.8, 1.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSummaryAddAfterQueryStaysSorted(t *testing.T) {
	var s Summary
	s.Add(5)
	s.Add(1)
	_ = s.Median()
	s.Add(3)
	if got := s.Median(); got != 3 {
		t.Errorf("median after interleaved add = %v, want 3", got)
	}
}

// TestSummaryOrderedInsertMatchesSort: an Add that follows an order query
// is inserted in place instead of re-sorting; whatever the interleaving,
// the samples read exactly as a bulk-added, sorted-once Summary's do —
// duplicates, a NaN and the running sum included.
func TestSummaryOrderedInsertMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var inc, bulk Summary
		for i := 0; i < 200; i++ {
			x := float64(rng.Intn(40)) / 4 // many equal samples
			if trial == 7 && i == 90 {
				x = math.NaN()
			}
			inc.Add(x)
			bulk.Add(x)
			if rng.Intn(3) == 0 {
				_ = inc.Percentile(75) // leaves inc in order: the next Add inserts
			}
		}
		got, want := inc.Values(), bulk.Values()
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("trial %d: sample %d is %v, sorted-once has %v", trial, i, got[i], want[i])
			}
		}
		if inc.Sum() != bulk.Sum() && !math.IsNaN(bulk.Sum()) {
			t.Fatalf("trial %d: sum %v, want %v", trial, inc.Sum(), bulk.Sum())
		}
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if got := w.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("variance = %v", got)
	}
	var empty Welford
	if !math.IsNaN(empty.Mean()) {
		t.Error("empty Welford mean should be NaN")
	}
}

func TestMedianFunc(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
	// Must not mutate input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(rng, weights)]++
	}
	if counts[1] != 0 {
		t.Error("zero-weight index chosen")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZeroFallsBackUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[WeightedChoice(rng, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 1500 {
			t.Errorf("uniform fallback skewed: counts[%d]=%d", i, c)
		}
	}
}

func TestWeightedChoiceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(ws []float64) bool {
		if len(ws) == 0 {
			return true
		}
		if len(ws) > 50 {
			ws = ws[:50]
		}
		idx := WeightedChoice(rng, ws)
		return idx >= 0 && idx < len(ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoQuantileEdges(t *testing.T) {
	p := NewPareto(2, 1.5)
	cases := []struct {
		name string
		q    float64
		want float64
	}{
		{"p=0 is the scale (distribution minimum)", 0, 2},
		{"p=1 is the supremum of a heavy tail", 1, math.Inf(1)},
		{"median matches Median()", 0.5, p.Median()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := p.Quantile(tc.q)
			if got != tc.want && math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
	// CDF round-trips the finite quantiles, including the q=0 edge.
	for _, q := range []float64{0, 0.25, 0.5, 0.99} {
		if got := p.CDF(p.Quantile(q)); math.Abs(got-q) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
	for _, bad := range []float64{-0.01, 1.01} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) should panic", bad)
				}
			}()
			p.Quantile(bad)
		}()
	}
}

func TestSingleSampleInputs(t *testing.T) {
	// A single observation must answer every reducer with itself —
	// degenerate inputs show up at tiny experiment scales (one seed,
	// one matching job in a bin).
	var s Summary
	s.Add(7.25)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if got := s.Percentile(p); got != 7.25 {
			t.Errorf("single-sample Percentile(%v) = %v, want 7.25", p, got)
		}
	}
	if s.Median() != 7.25 || s.Min() != 7.25 || s.Max() != 7.25 || s.Mean() != 7.25 {
		t.Error("single-sample Summary reducers disagree with the sample")
	}
	if got := Median([]float64{7.25}); got != 7.25 {
		t.Errorf("Median([x]) = %v, want x", got)
	}
	var w Welford
	w.Add(7.25)
	if w.Mean() != 7.25 {
		t.Errorf("single-sample Welford mean = %v", w.Mean())
	}
	if !math.IsNaN(w.Variance()) {
		t.Errorf("single-sample variance should be NaN, got %v", w.Variance())
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	fast := func(seed uint64) *rand.Rand {
		src := SplitMix64(seed)
		return rand.New(&src)
	}
	a, b := fast(99), fast(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed SplitMix64 streams diverge")
		}
	}
	// Different seeds must not produce the same stream.
	c, d := fast(1), fast(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Float64() == d.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct seeds collide on %d of 100 draws", same)
	}
	// The raw source covers the full uint64 range (top bits move).
	src := SplitMix64(5)
	var orbits uint64
	for i := 0; i < 64; i++ {
		orbits |= src.Uint64()
	}
	if orbits>>60 == 0 {
		t.Error("SplitMix64 top bits never set across 64 draws")
	}
}
