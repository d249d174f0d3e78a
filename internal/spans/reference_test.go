package spans

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file keeps the span store the record arena replaced, as the test
// reference: a chunked store of 104-byte Spans holding their strings and
// attribute slices, the counting-pass grouping over []*Span, aggregation
// through string-keyed maps and metrics.Distribution, and the Dump
// renderer over it. It shares only the wire types with the
// production recorder, so a bug in the recorder's grouping, attribution,
// quantiles or rendering shows as a difference.

const (
	refChunkShift = 8
	refChunkLen   = 1 << refChunkShift
	refChunkMask  = refChunkLen - 1
)

// refRecorder is the reference span store.
type refRecorder struct {
	rng       *sim.RNG
	rate      float64
	roots     uint64 // root candidates seen (sampled or not)
	sampled   int
	truncated bool
	chunks    []*[refChunkLen]Span
	n         int // spans recorded
	limit     int // span count at which new roots are refused
	events    []Event
	att       *Attribution
}

func newRefRecorder(seed uint64, rate float64) *refRecorder {
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	return &refRecorder{rng: sim.NewRNG(seed).Fork(0x5bab5), rate: rate, limit: maxSpans}
}

func (r *refRecorder) Root(kind, name string, start sim.Time) refRef {
	r.att = nil
	idx := r.roots
	r.roots++
	g := r.rng.Fork(idx)
	if r.rate < 1 && g.Float64() >= r.rate {
		return refRef{r: r}
	}
	return r.addRoot(TraceID(g.Uint64()), kind, name, start)
}

func (r *refRecorder) RootTraced(trace TraceID, kind, name string, start sim.Time) refRef {
	r.att = nil
	r.roots++
	return r.addRoot(trace, kind, name, start)
}

func (r *refRecorder) addRoot(trace TraceID, kind, name string, start sim.Time) refRef {
	if r.n >= r.limit {
		r.truncated = true
		return refRef{r: r}
	}
	r.sampled++
	return r.add(Span{Trace: trace, Kind: kind, Name: name, Start: start, End: start})
}

func (r *refRecorder) add(s Span) refRef {
	if r.n>>refChunkShift == len(r.chunks) {
		r.chunks = append(r.chunks, new([refChunkLen]Span))
	}
	r.n++
	s.ID = SpanID(r.n)
	*r.at(r.n - 1) = s
	return refRef{r: r, idx: r.n}
}

func (r *refRecorder) at(i int) *Span { return &r.chunks[i>>refChunkShift][i&refChunkMask] }

func (r *refRecorder) RecordEvent(at sim.Time, class, detail string) {
	r.att = nil
	r.events = append(r.events, Event{At: at, Class: class, Detail: detail})
}

func (r *refRecorder) Spans() []Span {
	out := make([]Span, r.n)
	for i := 0; i < r.n; i += refChunkLen {
		copy(out[i:], r.chunks[i>>refChunkShift][:])
	}
	return out
}

// refRef is the reference store's span handle.
type refRef struct {
	r   *refRecorder
	idx int // record index + 1 (the span's ID); 0 = inert
}

func (f refRef) Valid() bool { return f.r != nil && f.idx > 0 }

func (f refRef) span() *Span { return f.r.at(f.idx - 1) }

func (f refRef) Child(stage, name string, start, end sim.Time, attrs ...Attr) refRef {
	if !f.Valid() {
		return refRef{}
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

func (f refRef) Annotate(key, val string) {
	if !f.Valid() {
		return
	}
	f.r.att = nil
	s := f.span()
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

func (f refRef) Finish(end sim.Time) {
	if !f.Valid() {
		return
	}
	f.r.att = nil
	s := f.span()
	if end > s.Start {
		s.End = end
	}
}

func (r *refRecorder) Attribution() *Attribution {
	if r.att == nil {
		g := r.group()
		r.att = refAggregate(g.roots, g.kidsOf)
	}
	return r.att
}

type refTraceGroups struct {
	roots    []*Span
	rootSlot []int32 // roots[i]'s trace slot
	off      []int32
	kids     []*Span
}

func (g *refTraceGroups) kidsOf(i int) []*Span {
	k := g.rootSlot[i]
	return g.kids[g.off[k]:g.off[k+1]]
}

func (r *refRecorder) group() *refTraceGroups {
	g := &refTraceGroups{}
	slotOf := make([]int32, r.n)
	slots := make(map[TraceID]int32)
	var count []int32 // children per slot
	for i := 0; i < r.n; i++ {
		s := r.at(i)
		if s.Parent != 0 {
			slotOf[i] = slotOf[s.Parent-1]
			count[slotOf[i]]++
			continue
		}
		slot, ok := slots[s.Trace]
		if !ok {
			slot = int32(len(count))
			slots[s.Trace] = slot
			count = append(count, 0)
		}
		slotOf[i] = slot
		g.roots = append(g.roots, s)
		g.rootSlot = append(g.rootSlot, slot)
	}
	g.off = make([]int32, len(count)+1)
	for k, c := range count {
		g.off[k+1] = g.off[k] + c
	}
	next := count // reused as each slot's fill cursor
	copy(next, g.off)
	g.kids = make([]*Span, r.n-len(g.roots))
	for i := 0; i < r.n; i++ {
		if s := r.at(i); s.Parent != 0 {
			k := slotOf[i]
			g.kids[next[k]] = s
			next[k]++
		}
	}
	return g
}

func refAggregate(roots []*Span, kidsOf func(i int) []*Span) *Attribution {
	type kindAgg struct {
		kind   string
		e2e    *metrics.Distribution
		total  float64
		stages map[string]*refStageAgg
	}
	aggs := make(map[string]*kindAgg)
	var kindOrder []string
	var chain []refStageTime
	for i, root := range roots {
		ka := aggs[root.Kind]
		if ka == nil {
			ka = &kindAgg{kind: root.Kind, e2e: new(metrics.Distribution),
				stages: make(map[string]*refStageAgg)}
			aggs[root.Kind] = ka
			kindOrder = append(kindOrder, root.Kind)
		}
		e2e := root.End - root.Start
		ka.e2e.Observe(e2e.Nanoseconds())
		ka.total += e2e.Nanoseconds()
		chain = refCriticalChain(root, kidsOf(i), chain[:0])
		for _, st := range chain {
			sa := ka.stages[st.stage]
			if sa == nil {
				sa = &refStageAgg{dist: new(metrics.Distribution)}
				ka.stages[st.stage] = sa
			}
			sa.count++
			sa.total += st.t.Nanoseconds()
			sa.dist.Observe(st.t.Nanoseconds())
		}
	}

	sort.Strings(kindOrder)
	out := &Attribution{Schema: AttributionSchema}
	for _, kind := range kindOrder {
		ka := aggs[kind]
		kr := KindAttribution{
			Kind:          kind,
			Roots:         ka.e2e.N(),
			EndToEndP50NS: ka.e2e.Quantile(0.50),
			EndToEndP95NS: ka.e2e.Quantile(0.95),
			EndToEndP99NS: ka.e2e.Quantile(0.99),
			TotalNS:       ka.total,
		}
		names := make([]string, 0, len(ka.stages))
		for name := range ka.stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sa := ka.stages[name]
			st := StageStat{
				Stage: name, Count: sa.count, TotalNS: sa.total,
				P50NS: sa.dist.Quantile(0.50),
				P95NS: sa.dist.Quantile(0.95),
				P99NS: sa.dist.Quantile(0.99),
			}
			if ka.total > 0 {
				st.Share = sa.total / ka.total
			}
			kr.Stages = append(kr.Stages, st)
		}
		sort.SliceStable(kr.Stages, func(i, j int) bool {
			if kr.Stages[i].TotalNS != kr.Stages[j].TotalNS {
				return kr.Stages[i].TotalNS > kr.Stages[j].TotalNS
			}
			return kr.Stages[i].Stage < kr.Stages[j].Stage
		})
		out.Kinds = append(out.Kinds, kr)
	}
	return out
}

type refStageAgg struct {
	count int
	total float64
	dist  *metrics.Distribution
}

type refStageTime struct {
	stage string
	t     sim.Time
}

func refAddStage(chain []refStageTime, stage string, t sim.Time) []refStageTime {
	for i := range chain {
		if chain[i].stage == stage {
			chain[i].t += t
			return chain
		}
	}
	return append(chain, refStageTime{stage, t})
}

func refCriticalChain(root *Span, kids []*Span, out []refStageTime) []refStageTime {
	cursor := root.End
	for cursor > root.Start {
		// The active child covering cursor that starts earliest.
		var pick *Span
		for _, k := range kids {
			if k.Start < cursor && k.End >= cursor {
				if pick == nil || k.Start < pick.Start {
					pick = k
				}
			}
		}
		if pick == nil {
			next := root.Start
			for _, k := range kids {
				if k.End < cursor && k.End > next {
					next = k.End
				}
			}
			out = refAddStage(out, StageUntracked, cursor-next)
			cursor = next
			continue
		}
		lo := pick.Start
		if lo < root.Start {
			lo = root.Start
		}
		stage := pick.Stage
		if stage == "" {
			stage = StageUntracked
		}
		out = refAddStage(out, stage, cursor-lo)
		cursor = lo
	}
	return out
}

func (r *refRecorder) Dump() *Dump {
	d := &Dump{
		Schema:       DumpSchema,
		SampleRate:   r.rate,
		RootsSeen:    r.roots,
		RootsSampled: r.sampled,
		Truncated:    r.truncated,
		Spans:        make([]SpanRecord, r.n),
	}
	rootHex := make(map[TraceID]string)
	for i := range d.Spans {
		s := r.at(i)
		var trace string
		if s.Parent != 0 {
			trace = d.Spans[s.Parent-1].Trace
		} else if trace = rootHex[s.Trace]; trace == "" {
			trace = strconv.FormatUint(uint64(s.Trace), 16)
			trace = strings.Repeat("0", 16-len(trace)) + trace
			rootHex[s.Trace] = trace
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

// refBuildAttribution is the reference report over spans: children
// grouped in a map of one slice per trace, then the reference
// aggregation.
func refBuildAttribution(all []Span) *Attribution {
	children := make(map[TraceID][]*Span)
	var roots []*Span
	for i := range all {
		s := &all[i]
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Trace] = append(children[s.Trace], s)
		}
	}
	return refAggregate(roots, func(i int) []*Span { return children[roots[i].Trace] })
}

// diffRef pairs a span's handle in the recorder with its handle in the
// reference.
type diffRef struct {
	got  Ref
	want refRef
}

// runRecorderDiff drives a recorder and the reference store through the
// same calls, decoded from prog three bytes at a time: sampled roots,
// RootTraced roots on three shared trace IDs, roots and children through
// registered labels and through strings, bursts of up to 255 children
// (crossing chunk edges), reversed and gapped intervals, finishes, string,
// integer and picosecond attributes (the reference gets the strings the
// recorder must render), events, and a span limit that truncates the
// store. It then checks that Spans, Attribution and the Dump's JSON are
// equal.
func runRecorderDiff(t testing.TB, prog []byte) {
	seed := uint64(len(prog))
	rate := 1.0
	if len(prog) > 0 && prog[0]%4 == 0 {
		rate = 0.5
	}
	r, ref := NewRecorder(seed, rate), newRefRecorder(seed, rate)
	kinds := []string{KindMem, KindDispatch}
	stages := []string{StageFabric, StageCache, StageHBM, StageExecute, "", StageUntracked}
	type named struct {
		class, name string
		l           Label
	}
	var rootLabels, kidLabels []named
	for _, k := range kinds {
		rootLabels = append(rootLabels, named{k, "root." + k, r.Label(k, "root."+k)})
	}
	for _, s := range stages {
		kidLabels = append(kidLabels, named{s, "kid." + s, r.Label(s, "kid."+s)})
	}
	keys := []string{"bytes", "queue_ns", "src", "bytes"}
	var keyTexts []Text
	for _, k := range keys {
		keyTexts = append(keyTexts, r.Text(k))
	}
	vals := []string{"hit", "miss", "XCD0"}
	var valTexts []Text
	for _, v := range vals {
		valTexts = append(valTexts, r.Text(v))
	}

	var refs []diffRef
	pick := func(b byte) diffRef { return refs[int(b)%len(refs)] }
	for i := 0; i+2 < len(prog); i += 3 {
		op, a, b := prog[i], prog[i+1], prog[i+2]
		// Times in odd picoseconds, so float sums and nanosecond renders
		// see every digit.
		at, to := sim.Time(a)*137+sim.Time(op), sim.Time(b)*137+sim.Time(a%7)
		switch hi := op >> 4; {
		case op%16 == 0:
			refs = append(refs, diffRef{r.Root(kinds[hi%2], "root", at), ref.Root(kinds[hi%2], "root", at)})
		case op%16 == 1:
			tr := TraceID(hi % 3)
			refs = append(refs, diffRef{r.RootTraced(tr, kinds[hi/3%2], "traced", at),
				ref.RootTraced(tr, kinds[hi/3%2], "traced", at)})
		case op%16 == 2:
			n := rootLabels[hi%2]
			refs = append(refs, diffRef{r.RootLabeled(n.l, at), ref.Root(n.class, n.name, at)})
		case op%16 == 3:
			// A limit just above the store's size: the next few roots are
			// refused while children keep recording.
			r.limit = r.n + int(hi%4)
			ref.limit = r.limit
		case len(refs) == 0:
		case op%16 <= 5:
			p, st := pick(hi), stages[int(b)%len(stages)]
			refs = append(refs, diffRef{p.got.Child(st, "child", at, to), p.want.Child(st, "child", at, to)})
		case op%16 == 6:
			p, n := pick(hi), kidLabels[int(b)%len(kidLabels)]
			refs = append(refs, diffRef{p.got.ChildLabeled(n.l, at, to), p.want.Child(n.class, n.name, at, to)})
		case op%16 == 7:
			p, attr := pick(hi), Attr{Key: "result", Val: vals[int(a)%len(vals)]}
			refs = append(refs, diffRef{p.got.Child(StageCache, "mall", at, to, attr),
				p.want.Child(StageCache, "mall", at, to, attr)})
		case op%16 == 8:
			// A burst of b children, one label and name apart each.
			p, n := pick(hi), kidLabels[int(a)%len(kidLabels)]
			for j := 0; j < int(b); j++ {
				s := at + sim.Time(j)*31
				c := diffRef{p.got.ChildLabeled(n.l, s, s+to), p.want.Child(n.class, n.name, s, s+to)}
				if j%64 == 0 {
					refs = append(refs, c)
				}
			}
		case op%16 == 9:
			// One finish in four lands far past every other time, so the
			// float totals add values of very different sizes and the
			// order they are summed in shows.
			p, end := pick(hi), to
			if a%4 == 0 {
				end <<= 40
			}
			p.got.Finish(end)
			p.want.Finish(end)
		case op%16 == 10:
			p := pick(hi)
			p.got.Annotate("k", vals[int(b)%len(vals)])
			p.want.Annotate("k", vals[int(b)%len(vals)])
		case op%16 == 11:
			p, k := pick(hi), int(a)%len(keys)
			v := (int64(int8(a))*1000003 + int64(b)) * int64(b)
			p.got.AnnotateInt(keyTexts[k], v)
			p.want.Annotate(keys[k], strconv.FormatInt(v, 10))
		case op%16 == 12:
			// Picoseconds with trailing zeros (b a multiple of 10), below
			// and past the 2^43 ns cut, and negative.
			p, k := pick(hi), int(a)%len(keys)
			ps := sim.Time(a)*1000 + sim.Time(b)
			switch a % 8 {
			case 6:
				ps += 1 << 43 * sim.Nanosecond
			case 7:
				ps = -ps
			}
			p.got.AnnotateTime(keyTexts[k], ps)
			p.want.Annotate(keys[k], strconv.FormatFloat(ps.Nanoseconds(), 'f', 3, 64))
		case op%16 == 13:
			p, k, v := pick(hi), int(a)%len(keys), int(b)%len(vals)
			p.got.AnnotateText(keyTexts[k], valTexts[v])
			p.want.Annotate(keys[k], vals[v])
		case op%16 == 14:
			r.RecordEvent(at, "ras.fault", "x")
			ref.RecordEvent(at, "ras.fault", "x")
		default:
			// A second, later attribute on a span that may no longer sit at
			// the arena's tail.
			p := pick(hi)
			p.got.Annotate("late", "v")
			p.want.Annotate("late", "v")
		}
	}

	if got, want := r.Spans(), ref.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d spans: Spans differ from the reference", r.Len())
	}
	if got, want := r.Attribution(), ref.Attribution(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d spans: attribution %+v, reference %+v", r.Len(), got, want)
	}
	got, err := json.Marshal(r.Dump())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d spans: dump JSON differs from the reference:\n%s\n%s", r.Len(), got, want)
	}
}

// TestAttributionMatchesReference runs the differential over seeded
// random programs, over two RootTraced roots that share a TraceID, each
// of which must see the other's children, and over bursts that end one
// span either side of the first chunk edge.
func TestAttributionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		prog := make([]byte, 3*int(seed))
		rand.New(rand.NewSource(seed)).Read(prog)
		runRecorderDiff(t, prog)
	}
	runRecorderDiff(t, []byte{
		1, 0, 0, // RootTraced on trace 0 at 0 (refs[0])
		4, 0, 5, // a child of refs[0]
		1, 3, 0, // RootTraced on trace 0 again (refs[2])
		20, 1, 9, // a child of refs[2]
		9, 0, 9, // finish refs[0]
		25, 0, 12, // finish refs[2]
	})
	for extra := 0; extra <= 2; extra++ {
		// A root, a burst of 254 children and extra single children:
		// 255, 256 and 257 spans.
		prog := []byte{0, 0, 0, 8, 2, chunkLen - 2, 9, 0, 200, 11, 5, 7, 12, 3, 40}
		for j := 0; j < extra; j++ {
			prog = append(prog, 4, byte(j), 9)
		}
		runRecorderDiff(t, prog)
	}
}

func FuzzAttributionDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 5, 1, 3, 0, 18, 1, 9, 5, 0, 9, 21, 0, 12})
	f.Add([]byte{0, 0, 0, 2, 0, 5, 3, 9, 2, 8, 20, 4, 13, 40, 30, 5, 0, 50, 7, 1, 1})
	f.Add([]byte{0, 0, 0, 8, 2, chunkLen - 1, 4, 0, 9, 4, 1, 9, 9, 0, 200, 11, 5, 7, 12, 3, 40, 12, 6, 30, 12, 7, 20, 13, 1, 1, 15, 0, 0})
	f.Add([]byte{1, 0, 0, 3, 0, 0, 0, 1, 2, 4, 0, 5, 1, 3, 0, 17, 9, 9, 6, 2, 3, 7, 4, 4})
	f.Fuzz(func(t *testing.T, prog []byte) { runRecorderDiff(t, prog) })
}
