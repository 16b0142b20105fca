package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's side of each layer boundary only; the
// program under test carries no instrumentation.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = top level
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. The open-span stack
// belongs to the goroutine driving the benchmark; other goroutines (the
// live generator's collectors) record only completed leaf spans through
// leaf, under the same lock.
//
// A nil tracer records nothing, so untraced runs pay one nil check per
// call site and nothing inside the timed loops, which do not call it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
	stack []int
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (stack %v)", id, t.stack))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// leaf records an already-finished span under parent.
func (t *tracer) leaf(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// finish computes self times and the share of the traced wall time the
// top-level spans cover.
func (t *tracer) finish() (coverage float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 0
	}
	children := make([]int64, len(t.spans)+1)
	first, last, top := t.spans[0].Start, t.spans[0].End, int64(0)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
		if s.Parent == 0 {
			top += s.End - s.Start
		}
		first = min(first, s.Start)
		last = max(last, s.End)
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - children[s.ID]
	}
	return ratio(float64(top), float64(last-first))
}

// meanNs is the mean duration of the spans called name.
func (t *tracer) meanNs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	return ratio(sum, n)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	b, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
