// Package trace exports simulated timelines in the Chrome trace-event
// format (the JSON consumed by chrome://tracing and Perfetto), so program
// step timelines and kernel dispatches from the simulator can be
// inspected visually. The emitted event phases are complete spans ('X')
// and zero-duration instants ('i').
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Event is one trace event: a complete span ('X') or an instant ('i').
type Event struct {
	Name     string `json:"name"`
	Category string `json:"cat,omitempty"`
	Phase    string `json:"ph"`
	// TsUS and DurUS are microseconds, per the trace format.
	TsUS  float64 `json:"ts"`
	DurUS float64 `json:"dur"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	// Scope is the instant-event scope ("t" = thread), set only on 'i'.
	Scope string `json:"s,omitempty"`
	// Args carries the event's string annotations.
	Args map[string]string `json:"args,omitempty"`
}

// Trace accumulates events and track names.
type Trace struct {
	events []Event
	// processNames and threadNames label tracks in the viewer.
	processNames map[int]string
	threadNames  map[[2]int]string
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{
		processNames: make(map[int]string),
		threadNames:  make(map[[2]int]string),
	}
}

// NameProcess labels a process track (e.g. "MI300A").
func (t *Trace) NameProcess(pid int, name string) { t.processNames[pid] = name }

// NameThread labels a thread track (e.g. "XCD0").
func (t *Trace) NameThread(pid, tid int, name string) {
	t.threadNames[[2]int{pid, tid}] = name
}

// Span records one interval. A reversed interval (end before start) is
// swapped. A zero-length interval (start == end) is recorded as an
// instant ('i') event rather than a 0 µs span: viewers drop zero-duration
// complete events entirely, and a vanished marker is worse than a tick.
// The event keeps args itself, so the caller must not change it later.
func (t *Trace) Span(name, category string, pid, tid int, start, end sim.Time, args map[string]string) {
	if end < start {
		start, end = end, start
	}
	if start == end {
		t.events = append(t.events, Event{
			Name: name, Category: category, Phase: "i", Scope: "t",
			TsUS: start.Microseconds(),
			PID:  pid, TID: tid, Args: args,
		})
		return
	}
	t.events = append(t.events, Event{
		Name: name, Category: category, Phase: "X",
		TsUS:  start.Microseconds(),
		DurUS: (end - start).Microseconds(),
		PID:   pid, TID: tid, Args: args,
	})
}

// Len reports the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Events returns the recorded events sorted by start time.
func (t *Trace) Events() []Event {
	out := append([]Event(nil), t.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TsUS < out[j].TsUS })
	return out
}

// metadata events label tracks in the viewer.
func (t *Trace) metadata() []map[string]any {
	var md []map[string]any
	pids := make([]int, 0, len(t.processNames))
	for pid := range t.processNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		md = append(md, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid,
			"args": map[string]string{"name": t.processNames[pid]},
		})
	}
	keys := make([][2]int, 0, len(t.threadNames))
	for k := range t.threadNames {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		md = append(md, map[string]any{
			"name": "thread_name", "ph": "M", "pid": k[0], "tid": k[1],
			"args": map[string]string{"name": t.threadNames[k]},
		})
	}
	return md
}

// WriteJSON emits the trace in the JSON-array format.
func (t *Trace) WriteJSON(w io.Writer) error {
	all := make([]any, 0, len(t.events)+len(t.processNames)+len(t.threadNames))
	for _, m := range t.metadata() {
		all = append(all, m)
	}
	for _, e := range t.Events() {
		all = append(all, e)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(all)
}

// Validate checks structural invariants: spans have non-negative
// durations and instants have none.
func (t *Trace) Validate() error {
	for i, e := range t.events {
		switch e.Phase {
		case "X":
			if e.DurUS < 0 {
				return fmt.Errorf("trace: event %d (%s) has negative duration", i, e.Name)
			}
		case "i":
			if e.DurUS != 0 {
				return fmt.Errorf("trace: instant event %d (%s) has duration %g", i, e.Name, e.DurUS)
			}
		default:
			return fmt.Errorf("trace: event %d (%s) has phase %q", i, e.Name, e.Phase)
		}
	}
	return nil
}
