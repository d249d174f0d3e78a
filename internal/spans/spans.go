// Package spans provides distributed-tracing-style causal spans over the
// simulator's two hot paths: memory transactions (chiplet → fabric →
// Infinity Cache → HBM) and AQL kernel dispatches (enqueue → doorbell →
// decode → per-XCD execution → completion signal). A Recorder issues
// TraceID/SpanID pairs derived deterministically from a seed via the
// sim.RNG Fork discipline and head-samples root spans at a configurable
// rate, so million-access runs stay bounded. Everything recorded is
// simulated-time data: dumps are byte-identical for a fixed seed and
// fault plan at any parallelism degree (the PR 3 wall-clock firewall).
//
// The zero value of Ref and a nil *Recorder are both inert: every method
// no-ops, so uninstrumented hot paths pay only a nil check.
package spans

import (
	"repro/internal/sim"
)

// TraceID identifies one root span and its children (one causal tree).
type TraceID uint64

// SpanID identifies one span within a recorder (1-based; 0 is "no span").
type SpanID uint32

// Root-span kinds: the two instrumented hot paths.
const (
	// KindMem is a memory transaction (core.Platform.memAccess).
	KindMem = "mem"
	// KindDispatch is an AQL kernel dispatch (gpu.Partition.Process).
	KindDispatch = "dispatch"
)

// Segment stages, used as attribution buckets. Child spans carry one.
const (
	// StageFabric is per-link serialization along the routed fabric path.
	StageFabric = "fabric"
	// StageCache is the Infinity Cache slice service (hit or miss).
	StageCache = "cache"
	// StageHBM is HBM channel occupancy for the residual traffic.
	StageHBM = "hbm"
	// StageHBMECC is the re-occupancy of a channel after an ECC retry.
	StageHBMECC = "hbm.ecc"
	// StageEnqueue covers AQL packet enqueue + doorbell ring.
	StageEnqueue = "enqueue"
	// StageDecode is the per-XCD ACE packet read + decode.
	StageDecode = "decode"
	// StageExecute is per-XCD workgroup execution.
	StageExecute = "execute"
	// StageSync is the completion sync message to the nominated XCD.
	StageSync = "sync"
	// StageComplete is the completion-signal decrement.
	StageComplete = "complete"
	// StageUntracked is synthesized by the attribution analyzer for
	// critical-path time no child span covers (e.g. queueing gaps).
	StageUntracked = "untracked"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one recorded interval. Roots have Parent == 0 and a Kind;
// children carry the Stage they attribute time to.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Kind   string // root spans only
	Stage  string // child spans only
	Name   string
	Start  sim.Time
	End    sim.Time
	Attrs  []Attr
}

// Event is a global annotation pinned to a point in simulated time — RAS
// faults land here so a dump records what was done to the machine and
// when, alongside the spans the faults perturbed.
type Event struct {
	At     sim.Time
	Class  string
	Detail string
}

// maxSpans is a safety valve: once a recorder holds this many spans it
// stops recording new roots (Root and RootTraced refuse them and mark the
// store truncated), but children of roots already in the store still
// record, so recorded trees stay complete. That stays bounded: roots are
// capped, and each root's children come from its own transaction. The
// cutoff depends only on deterministic counts, so truncated dumps are
// still byte-stable.
const maxSpans = 1 << 20

// The store keeps spans in fixed-size chunks that are never moved or
// copied: growth allocates one more chunk, and a record index maps to
// (chunk, offset) by shift and mask. A chunk of 256 104-byte spans stays
// under the runtime's 32 KiB small-object limit.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Recorder issues IDs and accumulates spans. It is not goroutine-safe:
// like sim.Engine, each run owns its recorder exclusively. A span's ID is
// its record index plus one, so a child finds its parent by index.
type Recorder struct {
	rng       *sim.RNG
	rate      float64
	roots     uint64 // root candidates seen (sampled or not)
	sampled   int
	truncated bool
	chunks    []*[chunkLen]Span
	n         int // spans recorded
	limit     int // span count at which new roots are refused
	events    []Event
	// att is the report Attribution last built. Every call that records
	// or changes a span or an event clears it.
	att *Attribution
}

// NewRecorder returns a recorder whose TraceIDs and sampling decisions
// derive from seed. rate is the head-sampling probability in (0, 1]:
// each root candidate forks a per-candidate RNG stream (salt = candidate
// index) and records iff its first draw lands under rate. Rates outside
// (0, 1] select 1 (trace everything).
func NewRecorder(seed uint64, rate float64) *Recorder {
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	return &Recorder{rng: sim.NewRNG(seed).Fork(0x5bab5), rate: rate, limit: maxSpans}
}

// Enabled reports whether the recorder exists — the hot-path guard that
// lets instrumentation skip even the label formatting when tracing is off.
func (r *Recorder) Enabled() bool { return r != nil }

// RootsSeen reports how many root candidates were offered (sampled or not).
func (r *Recorder) RootsSeen() uint64 {
	if r == nil {
		return 0
	}
	return r.roots
}

// RootsSampled reports how many roots were recorded.
func (r *Recorder) RootsSampled() int {
	if r == nil {
		return 0
	}
	return r.sampled
}

// Root offers a root-span candidate. It returns an inert (but Attached)
// Ref when the candidate loses the sampling draw or the span store is
// full, and a fully zero Ref on a nil recorder. The per-candidate fork
// keeps decisions decorrelated: a
// subsystem recording more or fewer roots does not shift any other
// candidate's TraceID or sampling outcome relative to the candidate index.
func (r *Recorder) Root(kind, name string, start sim.Time) Ref {
	if r == nil {
		return Ref{}
	}
	r.att = nil
	idx := r.roots
	r.roots++
	g := r.rng.Fork(idx)
	if r.rate < 1 && g.Float64() >= r.rate {
		return Ref{r: r}
	}
	return r.addRoot(TraceID(g.Uint64()), kind, name, start)
}

// RootTraced records a root span under an explicit, caller-chosen
// TraceID, bypassing the sampling draw. It exists for service-level
// lifecycle tracing (apusimd's per-job traces), where the trace ID is
// the job's externally visible correlation key — threaded through logs,
// job JSON, and debug endpoints — rather than a seed-derived draw. The
// span-store safety valve still applies; candidate accounting matches
// Root so RootsSeen/RootsSampled stay truthful.
func (r *Recorder) RootTraced(trace TraceID, kind, name string, start sim.Time) Ref {
	if r == nil {
		return Ref{}
	}
	r.att = nil
	r.roots++
	return r.addRoot(trace, kind, name, start)
}

// addRoot records a sampled root, or refuses it and marks the store
// truncated once the store is full.
func (r *Recorder) addRoot(trace TraceID, kind, name string, start sim.Time) Ref {
	if r.n >= r.limit {
		r.truncated = true
		return Ref{r: r}
	}
	r.sampled++
	return r.add(Span{Trace: trace, Kind: kind, Name: name, Start: start, End: start})
}

// add appends s with the next ID, growing the store by one chunk when the
// last is full, and returns a Ref to it.
func (r *Recorder) add(s Span) Ref {
	if r.n>>chunkShift == len(r.chunks) {
		r.chunks = append(r.chunks, new([chunkLen]Span))
	}
	r.n++
	s.ID = SpanID(r.n)
	*r.at(r.n - 1) = s
	return Ref{r: r, idx: r.n}
}

// at returns the span at record index i.
func (r *Recorder) at(i int) *Span { return &r.chunks[i>>chunkShift][i&chunkMask] }

// Len reports how many spans the store holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// RecordEvent pins a global annotation (e.g. a RAS fault) at simulated
// time at. Nil-safe.
func (r *Recorder) RecordEvent(at sim.Time, class, detail string) {
	if r == nil {
		return
	}
	r.att = nil
	r.events = append(r.events, Event{At: at, Class: class, Detail: detail})
}

// Events returns the recorded global annotations in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.events...)
}

// String renders the one-line summary Dump.String renders for the
// recorder's dump, from the recorder's counters alone.
func (r *Recorder) String() string {
	if r == nil {
		return summary(0, 0, 0, 0)
	}
	return summary(r.n, r.sampled, r.roots, r.rate)
}

// Spans returns the recorded spans in record order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, r.n)
	for i := 0; i < r.n; i += chunkLen {
		copy(out[i:], r.chunks[i>>chunkShift][:])
	}
	return out
}

// Ref is a handle to a recorded span. The zero Ref (and any Ref obtained
// from an unsampled Root call) is inert: Child, Annotate, and Finish
// no-op, so instrumentation never branches on sampling itself.
type Ref struct {
	r   *Recorder
	idx int // record index + 1 (the span's ID); 0 = inert
}

// Valid reports whether the Ref refers to a live recorded span. Hot paths
// use it to skip label formatting for unsampled transactions.
func (f Ref) Valid() bool { return f.r != nil && f.idx > 0 }

// Attached reports whether the Ref passed through a recorder's sampling
// decision — true even when the candidate lost the draw. Consumers that
// receive a Ref through a carrier (e.g. an AQL packet) use it to tell
// "already decided, don't offer a second root candidate" apart from "no
// tracing context at all".
func (f Ref) Attached() bool { return f.r != nil }

func (f Ref) span() *Span { return f.r.at(f.idx - 1) }

// Child records a child span of f in the same trace, covering
// [start, end] and attributing its time to stage. Reversed intervals are
// swapped. It returns a Ref to the child so callers can annotate it.
// Children record even when the store is full (see maxSpans).
func (f Ref) Child(stage, name string, start, end sim.Time, attrs ...Attr) Ref {
	if !f.Valid() {
		return Ref{}
	}
	if end < start {
		start, end = end, start
	}
	f.r.att = nil
	parent := f.span()
	return f.r.add(Span{
		Trace: parent.Trace, Parent: parent.ID,
		Stage: stage, Name: name, Start: start, End: end, Attrs: attrs,
	})
}

// Annotate appends a key/value attribute to the span.
func (f Ref) Annotate(key, val string) {
	if !f.Valid() {
		return
	}
	f.r.att = nil
	s := f.span()
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// Finish closes the span at end (clamped to no earlier than its start).
func (f Ref) Finish(end sim.Time) {
	if !f.Valid() {
		return
	}
	f.r.att = nil
	s := f.span()
	if end > s.Start {
		s.End = end
	}
}
