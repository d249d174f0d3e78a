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
	"strconv"

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

// Label indexes a recorder's label table: a span's class (a root's kind
// or a child's stage) and its name. Hot paths register each label once
// with Recorder.Label and record by index; the string-taking Root,
// RootTraced and Child register one per call.
type Label uint32

// Text indexes a recorder's string table: attribute keys and string
// values, registered with Recorder.Text.
type Text uint32

// record is one stored span. It holds no pointers, so the collector never
// scans the store: its strings live in the label table and its attributes
// are arena entries attrOff to attrOff+attrN. A span's ID is its record
// index plus one, so the ID is not stored.
type record struct {
	// tree is a root's TraceID and, for a child, its root's ordinal among
	// the roots in record order: a child's trace is its root's.
	tree    uint64
	start   sim.Time
	end     sim.Time
	parent  SpanID
	label   Label
	attrOff uint32
	attrN   uint32
}

// label is one registered (class, name) pair; class indexes
// Recorder.classes.
type label struct {
	class int32
	name  string
}

// attrType selects how an attribute's value renders.
type attrType uint8

const (
	attrText attrType = iota // val is a Text
	attrInt                  // val renders as a decimal integer
	attrTime                 // val is picoseconds, rendered by formatNS
)

// attr is one attribute in the arena.
type attr struct {
	key Text
	typ attrType
	val int64
}

// The store keeps records, and the arena attributes, in fixed-size chunks
// that are never moved or copied: growth allocates one more chunk, and an
// index maps to (chunk, offset) by shift and mask. A record chunk is 256
// 40-byte records; an arena chunk 256 16-byte attributes.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Recorder issues IDs and accumulates spans. It is not goroutine-safe:
// like sim.Engine, each run owns its recorder exclusively.
type Recorder struct {
	rng       *sim.RNG
	rate      float64
	roots     uint64 // root candidates seen (sampled or not)
	sampled   int    // roots recorded
	truncated bool
	chunks    []*[chunkLen]record
	n         int // spans recorded
	limit     int // span count at which new roots are refused
	labels    []label
	classes   []string // every kind and stage a label names, once each
	texts     []string
	attrs     []*[chunkLen]attr
	nattr     int // arena entries in use
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

// Label registers a span label: class is a root's kind or a child's
// stage, name the span's name. A nil recorder returns 0.
func (r *Recorder) Label(class, name string) Label {
	if r == nil {
		return 0
	}
	c := -1
	for i, s := range r.classes {
		if s == class {
			c = i
			break
		}
	}
	if c < 0 {
		c = len(r.classes)
		r.classes = append(r.classes, class)
	}
	r.labels = append(r.labels, label{class: int32(c), name: name})
	return Label(len(r.labels) - 1)
}

// Text registers an attribute key or string value. A nil recorder
// returns 0.
func (r *Recorder) Text(s string) Text {
	if r == nil {
		return 0
	}
	r.texts = append(r.texts, s)
	return Text(len(r.texts) - 1)
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
	trace, ok := r.sample()
	if !ok {
		return Ref{r: r}
	}
	return r.addRoot(trace, r.Label(kind, name), start)
}

// RootLabeled is Root under a registered label.
func (r *Recorder) RootLabeled(l Label, start sim.Time) Ref {
	if r == nil {
		return Ref{}
	}
	trace, ok := r.sample()
	if !ok {
		return Ref{r: r}
	}
	return r.addRoot(trace, l, start)
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
	if !r.admit() {
		return Ref{r: r}
	}
	return r.addRoot(trace, r.Label(kind, name), start)
}

// sample offers one root candidate to the sampling draw and the store,
// returning its TraceID and whether it records.
func (r *Recorder) sample() (TraceID, bool) {
	r.att = nil
	idx := r.roots
	r.roots++
	g := r.rng.Fork(idx)
	if r.rate < 1 && g.Float64() >= r.rate {
		return 0, false
	}
	return TraceID(g.Uint64()), r.admit()
}

// admit counts a root the store takes, or refuses it and marks the store
// truncated once the store is full.
func (r *Recorder) admit() bool {
	if r.n >= r.limit {
		r.truncated = true
		return false
	}
	r.sampled++
	return true
}

// addRoot stores an admitted root, the r.sampled'th.
func (r *Recorder) addRoot(trace TraceID, l Label, start sim.Time) Ref {
	f := r.add(record{tree: uint64(trace), label: l, start: start, end: start})
	f.root = int32(r.sampled - 1)
	return f
}

// add appends s, growing the store by one chunk when the last is full,
// and returns a Ref to it.
func (r *Recorder) add(s record) Ref {
	if r.n>>chunkShift == len(r.chunks) {
		r.chunks = append(r.chunks, new([chunkLen]record))
	}
	*r.at(r.n) = s
	r.n++
	return Ref{r: r, idx: int32(r.n)}
}

// at returns the record at index i.
func (r *Recorder) at(i int) *record { return &r.chunks[i>>chunkShift][i&chunkMask] }

// records calls f with each chunk's records in use and the index of the
// first, in record order.
func (r *Recorder) records(f func(base int, recs []record)) {
	for c, chunk := range r.chunks {
		base := c << chunkShift
		f(base, chunk[:min(chunkLen, r.n-base)])
	}
}

// attrAt returns arena entry i.
func (r *Recorder) attrAt(i uint32) *attr { return &r.attrs[i>>chunkShift][i&chunkMask] }

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
	for i := range out {
		s := r.at(i)
		l := r.labels[s.label]
		out[i] = Span{
			ID: SpanID(i + 1), Parent: s.parent,
			Name: l.name, Start: s.start, End: s.end, Attrs: r.renderAttrs(s),
		}
		if s.parent == 0 {
			out[i].Trace = TraceID(s.tree)
			out[i].Kind = r.classes[l.class]
		} else {
			out[i].Trace = out[s.parent-1].Trace
			out[i].Stage = r.classes[l.class]
		}
	}
	return out
}

// renderAttrs renders s's attributes, or nil when it has none.
func (r *Recorder) renderAttrs(s *record) []Attr {
	if s.attrN == 0 {
		return nil
	}
	out := make([]Attr, s.attrN)
	for i := range out {
		a := r.attrAt(s.attrOff + uint32(i))
		out[i].Key = r.texts[a.key]
		switch a.typ {
		case attrInt:
			out[i].Val = strconv.FormatInt(a.val, 10)
		case attrTime:
			out[i].Val = formatNS(sim.Time(a.val))
		default:
			out[i].Val = r.texts[a.val]
		}
	}
	return out
}

// formatNS renders t ≥ 0 in nanoseconds with three decimals from its
// integer picoseconds, byte-identical to
// strconv.FormatFloat(t.Nanoseconds(), 'f', 3, 64): below 2^43 ns the
// float64 nearest t/1000 lies within half a unit of the third decimal of
// the exact quotient, so both round to its digits. Larger (and negative)
// times take the float path.
func formatNS(t sim.Time) string {
	if t < 0 || t >= 1<<43*sim.Nanosecond {
		return strconv.FormatFloat(t.Nanoseconds(), 'f', 3, 64)
	}
	ps := int64(t % sim.Nanosecond)
	var b [24]byte
	out := strconv.AppendInt(b[:0], int64(t/sim.Nanosecond), 10)
	out = append(out, '.', byte('0'+ps/100), byte('0'+ps/10%10), byte('0'+ps%10))
	return string(out)
}

// Ref is a handle to a recorded span. The zero Ref (and any Ref obtained
// from an unsampled Root call) is inert: Child, Annotate, and Finish
// no-op, so instrumentation never branches on sampling itself.
type Ref struct {
	r    *Recorder
	idx  int32 // record index + 1 (the span's ID); 0 = inert
	root int32 // the root's ordinal among the roots
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

func (f Ref) rec() *record { return f.r.at(int(f.idx) - 1) }

// Child records a child span of f in the same trace, covering
// [start, end] and attributing its time to stage. Reversed intervals are
// swapped. It returns a Ref to the child so callers can annotate it.
// Children record even when the store is full (see maxSpans).
func (f Ref) Child(stage, name string, start, end sim.Time, attrs ...Attr) Ref {
	if !f.Valid() {
		return Ref{}
	}
	c := f.ChildLabeled(f.r.Label(stage, name), start, end)
	for _, a := range attrs {
		c.Annotate(a.Key, a.Val)
	}
	return c
}

// ChildLabeled is Child under a registered label, without attributes.
func (f Ref) ChildLabeled(l Label, start, end sim.Time) Ref {
	if !f.Valid() {
		return Ref{}
	}
	if end < start {
		start, end = end, start
	}
	f.r.att = nil
	c := f.r.add(record{tree: uint64(f.root), parent: SpanID(f.idx), label: l, start: start, end: end})
	c.root = f.root
	return c
}

// Annotate appends a key/value attribute to the span.
func (f Ref) Annotate(key, val string) {
	if f.Valid() {
		f.annotate(f.r.Text(key), attrText, int64(f.r.Text(val)))
	}
}

// AnnotateText appends an attribute whose key and value are registered
// texts.
func (f Ref) AnnotateText(key, val Text) {
	if f.Valid() {
		f.annotate(key, attrText, int64(val))
	}
}

// AnnotateInt appends an attribute whose value renders as the decimal v.
func (f Ref) AnnotateInt(key Text, v int64) {
	if f.Valid() {
		f.annotate(key, attrInt, v)
	}
}

// AnnotateTime appends an attribute whose value renders as t in
// nanoseconds with three decimals.
func (f Ref) AnnotateTime(key Text, t sim.Time) {
	if f.Valid() {
		f.annotate(key, attrTime, int64(t))
	}
}

// annotate appends one attribute to the span's run in the arena. A run
// grows only at the arena's tail: a span annotated after another span's
// attributes has its run copied to the tail first.
func (f Ref) annotate(key Text, typ attrType, val int64) {
	r := f.r
	r.att = nil
	s := f.rec()
	if s.attrN == 0 || int(s.attrOff+s.attrN) != r.nattr {
		off := uint32(r.nattr)
		for i := range s.attrN {
			r.pushAttr(*r.attrAt(s.attrOff + i))
		}
		s.attrOff = off
	}
	r.pushAttr(attr{key: key, typ: typ, val: val})
	s.attrN++
}

// pushAttr appends a to the arena, growing it by one chunk when the last
// is full.
func (r *Recorder) pushAttr(a attr) {
	if r.nattr>>chunkShift == len(r.attrs) {
		r.attrs = append(r.attrs, new([chunkLen]attr))
	}
	*r.attrAt(uint32(r.nattr)) = a
	r.nattr++
}

// Finish closes the span at end (clamped to no earlier than its start).
func (f Ref) Finish(end sim.Time) {
	if !f.Valid() {
		return
	}
	f.r.att = nil
	s := f.rec()
	if end > s.start {
		s.end = end
	}
}
