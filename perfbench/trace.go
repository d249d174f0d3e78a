package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
	"unsafe"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the module it names. Spans of one op share Trace (the
// op's root span ID); Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; dump writes them out when the run
// ends. A nil *tracer records nothing, which is how untraced ops run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// heldBytes is the memory the span buffer holds, so heap measurements of
// the program under test can leave the tracer's own share out.
func (t *tracer) heldBytes() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(cap(t.spans)) * int64(unsafe.Sizeof(span{}))
}

// selfNS returns the self time of each closed span with the given name
// whose root span is named root: its duration minus the time its child
// spans cover. Children of one span never overlap here, since every
// span's children are sequential calls from the goroutine that opened it.
func (t *tracer) selfNS(root, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && t.spans[s.Trace-1].Name == root {
			out = append(out, float64(s.End-s.Start-child[s.ID]))
		}
	}
	return out
}

// selfMedian is the median self time, in units of unitNS nanoseconds
// (1e6 for ms, 1e3 for µs), of the spans selfNS selects; false when none
// was recorded.
func (t *tracer) selfMedian(root, name string, unitNS float64) (float64, bool) {
	v := t.selfNS(root, name)
	if len(v) == 0 {
		return 0, false
	}
	return quantile(v, 0.5) / unitNS, true
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
