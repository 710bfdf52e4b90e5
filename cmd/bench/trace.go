package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from cmd/bench into a layer. Spans of one run
// share its op label; parent is the span that was open when this one
// began (-1 for a root), which on a single-threaded driver is the span
// that caused it.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCapacity preallocates the span slice so steady-state begin/end never
// reallocates inside a timed region: the largest traced pass (converge-2k,
// two stepped runs plus the shadow's six spans a round) stays under it.
const spanCapacity = 1 << 18

// tracer records spans in memory; nothing is written until the pass ends.
// A nil tracer records nothing, so one drive loop serves traced and
// untraced runs.
type tracer struct {
	t0    time.Time
	op    string
	spans []span
	open  []int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, spanCapacity)}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.open = append(t.open, id)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.spans[id].Start = int64(time.Since(t.t0))
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = now
}

// durations returns, in span order, the duration in nanoseconds of every
// span of the given op and name.
func (t *tracer) durations(op, name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Op == op && s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// total returns the summed duration in nanoseconds of every span of the
// given op and name.
func (t *tracer) total(op, name string) float64 {
	sum := 0.0
	for _, d := range t.durations(op, name) {
		sum += d
	}
	return sum
}

// selfTimes returns, indexed like spans, each span's duration minus the
// part of its interval that its child spans cover (overlapping children
// are counted once; a child is clipped to its parent's interval). A span's
// ID is its index, as the tracer assigns them.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary is one row of the traced pass's ladder: every span of one
// (op, name) folded together.
type spanSummary struct {
	Op      string  `json:"op"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary folds the spans by (op, name) in first-appearance order.
func (t *tracer) summary() []spanSummary {
	self := selfTimes(t.spans)
	index := map[[2]string]int{}
	var rows []spanSummary
	for i, s := range t.spans {
		key := [2]string{s.Op, s.Name}
		r, ok := index[key]
		if !ok {
			r = len(rows)
			index[key] = r
			rows = append(rows, spanSummary{Op: s.Op, Name: s.Name})
		}
		rows[r].Count++
		rows[r].TotalMS += float64(s.End-s.Start) / 1e6
		rows[r].SelfMS += float64(self[i]) / 1e6
	}
	return rows
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(t.spans)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
