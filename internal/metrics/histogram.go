package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the latency-observability primitive: a fixed-bucket
// log-scale histogram with an allocation-free, lock-free record path.
// Scheduler loops record into it on every placement and probe round, so
// Record must cost a handful of instructions; quantile reads happen at
// report time and may be arbitrarily lazy.
//
// Buckets are log-linear (HDR-style): each power-of-two octave
// [2^e, 2^(e+1)) microseconds splits into 8 equal-width sub-buckets, so
// bucket (e, s) covers [2^e·(1+s/8), 2^e·(1+(s+1)/8)) and the relative
// bucket width — the worst-case quantile error — is 1/(8+s) ≤ 12.5%,
// well under the run-to-run noise of any scheduling-latency
// measurement. 34 octaves span 1µs..~4.8h in 8·34 = 272 counters.
// Durations below 1µs land in bucket 0; durations off the top saturate
// into the last bucket.

const (
	histSubBits    = 3 // 2^3 = 8 sub-buckets per octave
	histSubBuckets = 1 << histSubBits
	histOctaves    = 34 // 2^34 µs ≈ 4.8 hours
	histBuckets    = histSubBuckets * histOctaves
)

// Histogram is a fixed-size log-scale latency histogram. The zero value
// is ready to use. Record/Count are safe for concurrent use; Quantile
// takes a consistent-enough snapshot for reporting (exact when recorders
// are quiescent).
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
}

// bucketOf maps a duration to its bucket index: the octave is the
// position of the value's leading bit, the sub-bucket the next 3 bits
// below it.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us == 0 {
		return 0
	}
	exp := bits.Len64(us) - 1 // floor(log2 us)
	var sub int
	if exp >= histSubBits {
		sub = int((us >> (uint(exp) - histSubBits)) & (histSubBuckets - 1))
	} else {
		sub = int((us << (histSubBits - uint(exp))) & (histSubBuckets - 1))
	}
	i := exp*histSubBuckets + sub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketLow returns the lower edge of bucket i as a duration.
func bucketLow(i int) time.Duration {
	exp := i / histSubBuckets
	sub := i % histSubBuckets
	us := math.Exp2(float64(exp)) * (1 + float64(sub)/histSubBuckets)
	return time.Duration(us * float64(time.Microsecond))
}

// Record adds one observation. Allocation-free and lock-free.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Quantile returns the latency at quantile q in [0,1] — the lower edge
// of the bucket holding the q-th observation (so reported values never
// exceed the true quantile, and undershoot by at most one bucket width,
// ≤12.5%). Zero observations yield 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return bucketLow(i)
		}
	}
	return bucketLow(histBuckets - 1)
}

// LatencyRow renders one histogram as a fixed-width table row:
// name, count, p50, p99, p999.
func LatencyRow(name string, h *Histogram) string {
	return fmt.Sprintf("%-24s %9d %10s %10s %10s",
		name, h.Count(),
		fmtLatency(h.Quantile(0.50)),
		fmtLatency(h.Quantile(0.99)),
		fmtLatency(h.Quantile(0.999)))
}

// NamedHist labels a histogram for table rendering.
type NamedHist struct {
	Name string
	Hist *Histogram
}

// LatencyTable renders a header plus one row per (name, histogram)
// pair, in the order given.
func LatencyTable(rows []NamedHist) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %9s %10s %10s %10s\n", "latency", "count", "p50", "p99", "p999")
	for _, r := range rows {
		b.WriteString(LatencyRow(r.Name, r.Hist))
		b.WriteByte('\n')
	}
	return b.String()
}

// fmtLatency renders a duration with ~3 significant figures in the
// natural unit (µs/ms/s) — time.Duration.String is too noisy for
// tables.
func fmtLatency(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
