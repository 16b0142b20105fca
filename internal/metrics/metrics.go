// Package metrics collects per-job results from simulation runs and
// computes the paper's reported quantities: reduction (%) in average job
// duration versus a baseline, per-job gain distributions (Figure 8a),
// slowdowns versus fair allocation (Figure 10), and the job-size and
// DAG-length breakdowns used throughout Section 7. It also renders the
// fixed-width tables the harness prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/workload"
)

// JobResult is one job's outcome in one run.
type JobResult struct {
	ID         cluster.JobID
	Tasks      int
	DAGLen     int
	Completion float64 // response time: done - arrival
}

// Collect extracts results from completed jobs. It panics if a job is
// unfinished — experiments must run traces to completion.
func Collect(jobs []*cluster.Job) []JobResult {
	out := make([]JobResult, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, JobResult{
			ID:         j.ID,
			Tasks:      j.TotalTasks(),
			DAGLen:     len(j.Phases),
			Completion: j.CompletionTime(),
		})
	}
	return out
}

// Run is the job results of one scheduler on one trace and seed.
type Run struct {
	Jobs []JobResult
}

// AvgCompletion returns the mean job response time.
func (r Run) AvgCompletion() float64 {
	if len(r.Jobs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, j := range r.Jobs {
		s += j.Completion
	}
	return s / float64(len(r.Jobs))
}

// AvgCompletionWhere averages response time over jobs passing the filter;
// NaN when none match.
func (r Run) AvgCompletionWhere(keep func(JobResult) bool) float64 {
	var s float64
	n := 0
	for _, j := range r.Jobs {
		if keep(j) {
			s += j.Completion
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Gain returns the paper's headline metric: reduction (%) in average job
// duration going from baseline to improved.
func Gain(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - improved) / baseline * 100
}

// GainBetween computes Gain over whole runs.
func GainBetween(baseline, improved Run) float64 {
	return Gain(baseline.AvgCompletion(), improved.AvgCompletion())
}

// GainWhere computes Gain over the filtered subset of both runs.
func GainWhere(baseline, improved Run, keep func(JobResult) bool) float64 {
	return Gain(baseline.AvgCompletionWhere(keep), improved.AvgCompletionWhere(keep))
}

// PerJobGains matches jobs by ID across two runs of the same trace and
// returns each job's individual gain (%) going baseline -> improved.
// Used for the CDF of Figure 8a and the slowdown analysis of Figure 10.
func PerJobGains(baseline, improved Run) []float64 {
	base := make(map[cluster.JobID]float64, len(baseline.Jobs))
	for _, j := range baseline.Jobs {
		base[j.ID] = j.Completion
	}
	var gains []float64
	for _, j := range improved.Jobs {
		if b, ok := base[j.ID]; ok && b > 0 {
			gains = append(gains, Gain(b, j.Completion))
		}
	}
	sort.Float64s(gains)
	return gains
}

// SlowdownStats summarizes jobs that got slower versus a baseline run:
// the fraction of such jobs, and the average and worst increase (%) in
// their durations (Figure 10b/10c). Negative gains are slowdowns.
type SlowdownStats struct {
	FractionSlowed float64
	AvgIncrease    float64
	WorstIncrease  float64
}

// Slowdowns computes SlowdownStats from per-job gains.
func Slowdowns(gains []float64) SlowdownStats {
	var s SlowdownStats
	if len(gains) == 0 {
		return s
	}
	n := 0
	for _, g := range gains {
		if g < 0 {
			inc := -g
			n++
			s.AvgIncrease += inc
			if inc > s.WorstIncrease {
				s.WorstIncrease = inc
			}
		}
	}
	s.FractionSlowed = float64(n) / float64(len(gains))
	if n > 0 {
		s.AvgIncrease /= float64(n)
	}
	return s
}

// BinBreakdown renders the paper's standard per-size-bin result table
// for one run — job count and average completion per bin plus the
// overall average. The simulator drivers and the live load generator
// share this so their reports line up column for column.
func BinBreakdown(title string, r Run) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"bin", "jobs", "avg completion (s)"},
	}
	for _, bin := range workload.SizeBins() {
		bin := bin
		n := 0
		for _, j := range r.Jobs {
			if workload.SizeBin(j.Tasks) == bin {
				n++
			}
		}
		t.AddF(bin, n, r.AvgCompletionWhere(func(j JobResult) bool {
			return workload.SizeBin(j.Tasks) == bin
		}))
	}
	t.AddF("all", len(r.Jobs), r.AvgCompletion())
	return t
}

// Table renders fixed-width text tables for harness output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends one row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row of formatted cells: strings pass through, float64
// renders with one decimal, ints as integers.
func (t *Table) AddF(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			if math.IsNaN(v) {
				row[i] = "-"
			} else {
				row[i] = fmt.Sprintf("%.1f", v)
			}
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Add(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}
