package spans

import (
	"fmt"
	"strconv"
	"strings"
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
// byte-identical JSON at any parallelism degree.
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

// Dump renders the recorder's store in wire form, including the
// attribution report. On a recorder whose report is already built, as a
// finished run's is, it only reads.
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
		Spans:        make([]SpanRecord, r.n),
	}
	for i, s := range r.Spans() {
		// A child copies its parent's hex trace ID (the record at the
		// parent's index); a root formats its own.
		var trace string
		if s.Parent != 0 {
			trace = d.Spans[s.Parent-1].Trace
		} else {
			trace = strconv.FormatUint(uint64(s.Trace), 16)
			trace = strings.Repeat("0", 16-len(trace)) + trace
		}
		d.Spans[i] = SpanRecord{
			Trace: trace,
			ID:    uint32(s.ID), Parent: uint32(s.Parent),
			Kind: s.Kind, Stage: s.Stage, Name: s.Name,
			StartNS: s.Start.Nanoseconds(), EndNS: s.End.Nanoseconds(),
			Attrs: s.Attrs,
		}
	}
	for _, e := range r.events {
		d.Events = append(d.Events, EventRecord{
			AtNS: e.At.Nanoseconds(), Class: e.Class, Detail: e.Detail,
		})
	}
	if r.n > 0 {
		d.Attribution = r.Attribution()
	}
	return d
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
