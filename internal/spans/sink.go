package spans

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// DumpSchema identifies the spans-dump JSON layout; bump on incompatible
// changes.
const DumpSchema = "apusim-spans/v1"

// SpanRecord is one span in wire form. Times are simulated nanoseconds.
type SpanRecord struct {
	Trace   string  `json:"trace"`
	ID      uint32  `json:"id"`
	Parent  uint32  `json:"parent,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	Stage   string  `json:"stage,omitempty"`
	Name    string  `json:"name"`
	StartNS float64 `json:"start_ns"`
	EndNS   float64 `json:"end_ns"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// EventRecord is one global annotation in wire form.
type EventRecord struct {
	AtNS   float64 `json:"at_ns"`
	Class  string  `json:"class"`
	Detail string  `json:"detail"`
}

// Dump is the full span store in wire form. Everything in it derives from
// the seed, the plan, and simulated time, so identical runs produce
// byte-identical WriteJSON output at any parallelism degree.
type Dump struct {
	Schema       string        `json:"schema"`
	SampleRate   float64       `json:"sample_rate"`
	RootsSeen    uint64        `json:"roots_seen"`
	RootsSampled int           `json:"roots_sampled"`
	Truncated    bool          `json:"truncated,omitempty"`
	Spans        []SpanRecord  `json:"spans"`
	Events       []EventRecord `json:"events,omitempty"`
	Attribution  *Attribution  `json:"attribution,omitempty"`
}

// Dump snapshots the recorder's store, including the attribution report.
func (r *Recorder) Dump() *Dump {
	if r == nil {
		return nil
	}
	d := &Dump{
		Schema:       DumpSchema,
		SampleRate:   r.rate,
		RootsSeen:    r.roots,
		RootsSampled: r.sampled,
		Truncated:    r.truncated,
		Spans:        make([]SpanRecord, 0, len(r.spans)),
	}
	for _, s := range r.spans {
		trace := strconv.FormatUint(uint64(s.Trace), 16)
		d.Spans = append(d.Spans, SpanRecord{
			Trace: strings.Repeat("0", 16-len(trace)) + trace,
			ID:    uint32(s.ID), Parent: uint32(s.Parent),
			Kind: s.Kind, Stage: s.Stage, Name: s.Name,
			StartNS: s.Start.Nanoseconds(), EndNS: s.End.Nanoseconds(),
			Attrs: s.Attrs,
		})
	}
	for _, e := range r.events {
		d.Events = append(d.Events, EventRecord{
			AtNS: e.At.Nanoseconds(), Class: e.Class, Detail: e.Detail,
		})
	}
	if len(r.spans) > 0 {
		d.Attribution = r.Attribution()
	}
	return d
}

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// String renders a one-line description for deterministic experiment
// footers.
func (d *Dump) String() string {
	return summary(len(d.Spans), d.RootsSampled, d.RootsSeen, d.SampleRate)
}

// summary renders the one-line description Dump.String and
// Recorder.String share.
func summary(spans, sampled int, seen uint64, rate float64) string {
	return fmt.Sprintf("%d spans across %d sampled roots (of %d seen) @ rate %g", spans, sampled, seen, rate)
}

// AddToTrace renders the recorded span trees onto tr as Chrome-trace
// events on process pid: root spans on thread 0, each segment stage on
// its own thread track, and one flow ('s'/'t'/'f') per root binding the
// root's start through every child to its completion — so Perfetto draws
// the causal arrows across tracks. Flow IDs are the root's 1-based
// record index, deterministic for a fixed seed.
func (r *Recorder) AddToTrace(tr *trace.Trace, pid int) {
	if r == nil {
		return
	}
	tr.NameProcess(pid, "spans")
	tr.NameThread(pid, 0, "roots")
	// Stable stage → thread mapping in order of first appearance.
	stageTID := make(map[string]int)
	tidOf := func(stage string) int {
		if tid, ok := stageTID[stage]; ok {
			return tid
		}
		tid := 1 + len(stageTID)
		stageTID[stage] = tid
		tr.NameThread(pid, tid, stage)
		return tid
	}
	children := make(map[TraceID][]*Span)
	var roots []*Span
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Trace] = append(children[s.Trace], s)
		}
	}
	attrsOf := func(s *Span) map[string]string {
		if len(s.Attrs) == 0 {
			return nil
		}
		m := make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			m[a.Key] = a.Val
		}
		return m
	}
	flow := int64(0)
	for _, root := range roots {
		flow++
		tr.Span(root.Name, root.Kind, pid, 0, root.Start, root.End, attrsOf(root))
		// Flow events must bind to an enclosing 'X' span on their track;
		// zero-length intervals render as instants, so they carry no flow.
		withFlow := root.End > root.Start
		if withFlow {
			tr.Flow("s", root.Name, root.Kind, flow, pid, 0, root.Start)
		}
		kids := children[root.Trace]
		for _, k := range kids {
			tr.Span(k.Name, k.Stage, pid, tidOf(k.Stage), k.Start, k.End, attrsOf(k))
		}
		// Steps go out sorted by start so each flow's timestamps are
		// monotonic in record order (chunks interleave across channels), and
		// clamped to the root start: a child may reach back before its root
		// (fabric hops begin at injection), but a flow step earlier than the
		// flow's own 's' event would fail validation.
		sorted := append([]*Span(nil), kids...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		for _, k := range sorted {
			if withFlow && k.End > k.Start && k.End > root.Start {
				at := k.Start
				if at < root.Start {
					at = root.Start
				}
				tr.Flow("t", k.Name, k.Stage, flow, pid, tidOf(k.Stage), at)
			}
		}
		if withFlow {
			tr.Flow("f", root.Name, root.Kind, flow, pid, 0, root.End)
		}
	}
}
