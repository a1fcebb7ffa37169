package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
)

// span is one traced interval at a layer boundary. Spans of one trial or
// request share ID; Parent indexes the span that caused this one (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, relative to its creation time, and writes
// them out once when the benchmark ends. It is safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return len(t.spans) - 1
}

// setParent makes span parent the cause of span i, for a child recorded
// before its parent (a handler span finishes before the client's).
func (t *tracer) setParent(i, parent int) {
	t.mu.Lock()
	t.spans[i].Parent = parent
	t.mu.Unlock()
}

func (t *tracer) duration(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedPlan wraps a trial engine's composed window adversary and times
// every planning call. It forwards sim.ColumnarPlanner exactly as the inner
// adversary offers it, so wrapping never changes which path a window takes:
// a wrapper that hid the interface would silently measure the message path.
type timedPlan struct {
	inner sim.WindowAdversary
	col   sim.ColumnarPlanner // nil when inner cannot plan columnar windows
	last  time.Duration       // duration of the most recent planning call
}

func newTimedPlan(inner sim.WindowAdversary) *timedPlan {
	cp, _ := inner.(sim.ColumnarPlanner)
	return &timedPlan{inner: inner, col: cp}
}

// PlanDelivery implements sim.WindowAdversary.
func (p *timedPlan) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	start := time.Now()
	w := p.inner.PlanDelivery(s, batch)
	p.last = time.Since(start)
	return w
}

// PlansColumnar implements sim.ColumnarPlanner.
func (p *timedPlan) PlansColumnar() bool { return p.col != nil && p.col.PlansColumnar() }

// PlanDeliveryColumnar implements sim.ColumnarPlanner.
func (p *timedPlan) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	start := time.Now()
	w := p.col.PlanDeliveryColumnar(s, cols)
	p.last = time.Since(start)
	return w
}

// timedSink wraps a result sink and records how long each Consume takes.
// Records pass through unchanged.
type timedSink struct {
	inner   registry.ResultSink
	consume []float64 // microseconds per Consume
}

// Consume implements registry.ResultSink.
func (s *timedSink) Consume(rec registry.TrialRecord) error {
	start := time.Now()
	err := s.inner.Consume(rec)
	s.consume = append(s.consume, float64(time.Since(start).Nanoseconds())/1e3)
	return err
}

// Flush implements registry.ResultSink.
func (s *timedSink) Flush() error { return s.inner.Flush() }
