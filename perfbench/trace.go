package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"fmsa/internal/align"
)

// span is one timed call from the benchmark into a layer's public function.
// Parent is the index of the enclosing span, or -1 at the top level; Start
// and End are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so timed passes pay nothing.
//
// Spans nest through a stack of open spans, which is only meaningful when
// calls arrive from one goroutine; traced runs therefore use Workers=1
// (see runTraced).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int

	// Align shim counters: calls and DP cells (n·m per coded call).
	alignCalls, alignCells int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// totalMS sums the durations of the spans named name within a closed
// window.
func (t *tracer) totalMS(name string, w *window) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans[w.from:w.to] {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// alignShim is the hook installed as explore.Options.Merge.AlignCoded: it
// calls align.AlignCodes, the kernel the option holds by default, inside
// an "align" span. Merge decisions are unchanged; runs compare digests with
// and without the shim to confirm it.
func (t *tracer) alignShim() align.CodedFunc {
	return func(a, b []uint32, sc align.Scoring) []align.Step {
		id := t.begin("align")
		steps := align.AlignCodes(a, b, sc)
		t.end(id)
		t.mu.Lock()
		t.alignCalls++
		t.alignCells += int64(len(a)) * int64(len(b))
		t.mu.Unlock()
		return steps
	}
}

// window delimits the spans and align-shim counts of one pass or stream.
type window struct {
	from, to     int
	calls, cells int64 // shim counters at open, then the deltas once closed
}

// window opens a window at the current spans and counters.
func (t *tracer) window() *window {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &window{from: len(t.spans), calls: t.alignCalls, cells: t.alignCells}
}

// close ends w at the current spans and counters.
func (t *tracer) close(w *window) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w.to = len(t.spans)
	w.calls = t.alignCalls - w.calls
	w.cells = t.alignCells - w.cells
}

// align returns what the shim saw within a closed window.
func (t *tracer) align(w *window) alignTrace {
	return alignTrace{calls: w.calls, cells: w.cells, ms: t.totalMS("align", w)}
}

// write dumps every span as one JSON line, for inspection after the run.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
