package spans

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderAndZeroRefAreInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	ref := r.Root(KindMem, "x", 0)
	if ref.Attached() || ref.Valid() {
		t.Errorf("nil recorder Root = %+v, want fully inert Ref", ref)
	}
	// Every method must no-op without panicking.
	r.RecordEvent(0, "c", "d")
	if r.RootsSeen() != 0 || r.RootsSampled() != 0 {
		t.Error("nil recorder reports nonzero state")
	}
	if r.Spans() != nil || r.Events() != nil || r.Dump() != nil || r.Attribution() != nil {
		t.Error("nil recorder returned non-nil data")
	}
	child := ref.Child(StageFabric, "hop", 0, 10)
	child.Annotate("k", "v")
	child.Finish(20)
	if child.Valid() {
		t.Error("child of inert Ref is Valid")
	}
}

func TestUnsampledRootIsAttachedButNotValid(t *testing.T) {
	// Rate ~0: every candidate loses the draw but stays Attached, so a
	// consumer receiving the Ref through a carrier knows the sampling
	// decision was already made.
	r := NewRecorder(1, 1e-12)
	ref := r.Root(KindDispatch, "d", 0)
	if !ref.Attached() {
		t.Error("unsampled Root not Attached")
	}
	if ref.Valid() {
		t.Error("unsampled Root is Valid")
	}
	if r.RootsSeen() != 1 || r.RootsSampled() != 0 {
		t.Errorf("seen/sampled = %d/%d, want 1/0", r.RootsSeen(), r.RootsSampled())
	}
}

func TestSamplingIsDeterministicAndDecorrelated(t *testing.T) {
	decisions := func(seed uint64, rate float64, n int) []bool {
		r := NewRecorder(seed, rate)
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = r.Root(KindMem, "m", sim.Time(i)).Valid()
		}
		return out
	}
	a := decisions(42, 0.5, 200)
	b := decisions(42, 0.5, 200)
	var sampled int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d decided differently across identical recorders", i)
		}
		if a[i] {
			sampled++
		}
	}
	if sampled == 0 || sampled == 200 {
		t.Errorf("rate 0.5 sampled %d/200 roots", sampled)
	}
	// Decorrelation: the decision for candidate i depends only on (seed, i),
	// so an extra unsampled subsystem candidate in between must not shift
	// later candidates' outcomes... which is equivalent to: decisions are a
	// pure function of the candidate index. Verify against a third recorder
	// that burns the same indices via a different root kind/name.
	r := NewRecorder(42, 0.5)
	for i := 0; i < 200; i++ {
		if got := r.Root(KindDispatch, "other-name", 99).Valid(); got != a[i] {
			t.Fatalf("candidate %d decision depends on kind/name/time, not index", i)
		}
	}
}

func TestChildSwapsReversedInterval(t *testing.T) {
	r := NewRecorder(1, 1)
	root := r.Root(KindMem, "m", 0)
	root.Child(StageHBM, "ch0", 30, 10)
	s := r.Spans()
	if s[1].Start != 10 || s[1].End != 30 {
		t.Errorf("reversed child = [%v, %v], want [10ps, 30ps]", s[1].Start, s[1].End)
	}
}

// buildTestTrees records two mem roots and one dispatch root with
// overlapping children and deliberate gaps, exercising every attribution
// case: parallel children, a child crossing the root start, and windows
// no child covers.
func buildTestTrees(r *Recorder) {
	m1 := r.Root(KindMem, "mem.read", 0)
	m1.Child(StageFabric, "hop0", 0, 100)
	m1.Child(StageCache, "mall0", 100, 250)
	// Two HBM chunks in parallel; the longer one gates completion.
	m1.Child(StageHBM, "ch0", 250, 400)
	m1.Child(StageHBM, "ch1", 250, 500)
	m1.Finish(500)

	m2 := r.Root(KindMem, "mem.write", 1000)
	m2.Child(StageFabric, "hop0", 900, 1100) // reaches back before the root start
	// Gap [1100, 1200] -> untracked.
	m2.Child(StageHBM, "ch2", 1200, 1600)
	m2.Finish(1600)

	d := r.Root(KindDispatch, "dispatch:k", 2000)
	d.Child(StageDecode, "xcd0.decode", 2000, 2050)
	d.Child(StageExecute, "xcd0.execute", 2050, 2900)
	d.Child(StageSync, "xcd1.sync", 2900, 3000)
	d.Finish(3000)
	d.Annotate("partition", "spx")
}

func TestAttributionSumsMatchEndToEnd(t *testing.T) {
	r := NewRecorder(7, 1)
	buildTestTrees(r)
	att := r.Attribution()
	if len(att.Kinds) != 2 {
		t.Fatalf("got %d kinds, want 2", len(att.Kinds))
	}
	for _, k := range att.Kinds {
		var sum float64
		for _, s := range k.Stages {
			sum += s.TotalNS
		}
		// The backwards chain walk covers each root's whole window, so the
		// per-stage totals must sum exactly to the end-to-end total.
		if sum != k.TotalNS {
			t.Errorf("kind %s: stage sum %g != end-to-end %g", k.Kind, sum, k.TotalNS)
		}
	}
}

func TestAttributionCriticalChain(t *testing.T) {
	r := NewRecorder(7, 1)
	buildTestTrees(r)
	att := r.Attribution()
	var mem *KindAttribution
	for i := range att.Kinds {
		if att.Kinds[i].Kind == KindMem {
			mem = &att.Kinds[i]
		}
	}
	if mem == nil {
		t.Fatal("no mem kind")
	}
	want := map[string]float64{
		// m1: fabric 100 + cache 150 + hbm 250 (ch1 gates; ch0 never on the
		// chain). m2: fabric 100 (clamped to the root start) + untracked 100
		// + hbm 400.
		StageFabric:    0.2,
		StageCache:     0.15,
		StageHBM:       0.65,
		StageUntracked: 0.1,
	}
	got := make(map[string]float64)
	for _, s := range mem.Stages {
		got[s.Stage] = s.TotalNS
	}
	for stage, ns := range want {
		if got[stage] != ns {
			t.Errorf("stage %s = %g ns on the critical chain, want %g", stage, got[stage], ns)
		}
	}
}

func TestDumpDeterministic(t *testing.T) {
	build := func() *bytes.Buffer {
		r := NewRecorder(7, 1)
		buildTestTrees(r)
		r.RecordEvent(1500, "ras.fault", "ecc-storm")
		b, err := json.Marshal(r.Dump())
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewBuffer(b)
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recorders dumped different bytes")
	}
	d := func() *Dump { r := NewRecorder(7, 1); buildTestTrees(r); return r.Dump() }()
	if d.Schema != DumpSchema || d.RootsSeen != 3 || d.RootsSampled != 3 {
		t.Errorf("dump header = %+v", d)
	}
	if d.Attribution == nil {
		t.Error("dump with spans carries no attribution")
	}
}

// TestAttributionReuseTracksMutations checks the attribution the
// recorder keeps: after every call that records or changes a span or an
// event, Attribution equals a fresh reference build over the spans, and
// with nothing recorded in between it returns the same report.
func TestAttributionReuseTracksMutations(t *testing.T) {
	r := NewRecorder(3, 1)
	var root, child Ref
	steps := []struct {
		name string
		do   func()
	}{
		{"Root", func() { root = r.Root(KindMem, "mem.read", 0) }},
		{"Child", func() { child = root.Child(StageFabric, "hop", 0, 40) }},
		{"Finish", func() { root.Finish(100) }},
		{"Child", func() { root.Child(StageHBM, "hbm.ch3", 30, 90) }},
		{"Annotate", func() { child.Annotate("k", "v") }},
		{"Finish", func() { root.Finish(130) }},
		{"RootTraced", func() { r.RootTraced(42, KindDispatch, "job", 10).Finish(60) }},
		{"RecordEvent", func() { r.RecordEvent(5, "ras.fault", "ecc") }},
		{"Root", func() { r.Root(KindMem, "mem.write", 200).Finish(260) }},
	}
	for i, st := range steps {
		before := r.Attribution()
		st.do()
		got := r.Attribution()
		if want := refBuildAttribution(r.Spans()); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): Attribution = %+v, reference = %+v", i, st.name, got, want)
		}
		if got == before {
			t.Errorf("step %d (%s): Attribution returned the report built before the call", i, st.name)
		}
		if again := r.Attribution(); again != got {
			t.Errorf("step %d (%s): a second Attribution with nothing recorded rebuilt the report", i, st.name)
		}
		d := r.Dump()
		if d.Attribution != got {
			t.Errorf("step %d (%s): Dump rebuilt the report", i, st.name)
		}
		if r.String() != d.String() {
			t.Errorf("step %d (%s): recorder summary %q, dump summary %q", i, st.name, r.String(), d.String())
		}
	}
}

// TestChunkBoundaries records 255, 256 and 257 spans, one chunk's worth
// either side of the first boundary, and checks Spans returns them all
// in record order with their IDs. It then writes through Refs into
// chunk 0 after chunk 2 exists: growth must never move a span.
func TestChunkBoundaries(t *testing.T) {
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1} {
		r := NewRecorder(2, 1)
		root := r.Root(KindMem, "root", 0)
		for i := 1; i < n; i++ {
			root.Child(StageHBM, strconv.Itoa(i), sim.Time(i), sim.Time(i+1))
		}
		s := r.Spans()
		if r.Len() != n || len(s) != n {
			t.Fatalf("%d spans: Len %d, Spans returned %d", n, r.Len(), len(s))
		}
		if want := (n + chunkLen - 1) / chunkLen; len(r.chunks) != want {
			t.Errorf("%d spans in %d chunks, want %d", n, len(r.chunks), want)
		}
		for i := 1; i < n; i++ {
			if s[i].ID != SpanID(i+1) || s[i].Name != strconv.Itoa(i) || s[i].Parent != 1 {
				t.Fatalf("%d spans: record %d = %+v, want ID %d named %d under the root", n, i, s[i], i+1, i)
			}
		}
	}

	r := NewRecorder(2, 1)
	root := r.Root(KindMem, "root", 0)
	early := root.Child(StageFabric, "early", 0, 1)
	for r.Len() <= 2*chunkLen {
		root.Child(StageHBM, "late", 2, 3)
	}
	if len(r.chunks) != 3 {
		t.Fatalf("%d spans in %d chunks, want 3", r.Len(), len(r.chunks))
	}
	early.Annotate("k", "v")
	early.Finish(99)
	root.Finish(1000)
	s := r.Spans()
	if s[0].End != 1000 || s[1].End != 99 || !reflect.DeepEqual(s[1].Attrs, []Attr{{"k", "v"}}) {
		t.Errorf("writes through chunk-0 Refs after growth: root %+v, early child %+v", s[0], s[1])
	}
	for i := range s {
		if s[i].ID != SpanID(i+1) {
			t.Fatalf("record %d has ID %d: Spans lost record order", i, s[i].ID)
		}
	}
}

// TestTruncationKeepsOpenTreesComplete fills a recorder to its cap and
// checks the cap's contract: new roots (sampled or traced) are refused,
// the store is marked truncated and RootsSampled stops, but a root
// already in the store keeps recording children, so its latency is
// attributed to their stages rather than to untracked. The truncated
// dump is byte-stable.
func TestTruncationKeepsOpenTreesComplete(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder(5, 1)
		r.limit = 4
		open := r.Root(KindMem, "open", 0)
		open.Child(StageFabric, "hop0", 0, 10)
		r.Root(KindMem, "closed", 5).Finish(20)
		r.RootTraced(9, KindDispatch, "job", 6).Finish(30)
		if ref := r.Root(KindMem, "refused", 40); ref.Valid() || !ref.Attached() {
			t.Errorf("Root on a full store = %+v, want an attached, inert Ref", ref)
		}
		if r.RootTraced(9, KindDispatch, "refused", 40).Valid() {
			t.Error("RootTraced on a full store recorded a root")
		}
		open.Child(StageCache, "mall0", 10, 30)
		open.Child(StageHBM, "hbm.ch0", 30, 50).Annotate("k", "v")
		open.Finish(50)
		return r
	}
	r := build()
	d := r.Dump()
	if !d.Truncated {
		t.Error("full store not marked truncated")
	}
	if r.RootsSampled() != 3 || r.RootsSeen() != 5 {
		t.Errorf("sampled/seen = %d/%d, want 3/5", r.RootsSampled(), r.RootsSeen())
	}
	var kids []string
	for _, s := range r.Spans() {
		if s.Parent == 1 {
			kids = append(kids, s.Name)
		}
	}
	if want := []string{"hop0", "mall0", "hbm.ch0"}; !reflect.DeepEqual(kids, want) {
		t.Errorf("open root's children = %v, want %v", kids, want)
	}
	for _, k := range r.Attribution().Kinds {
		if k.Kind != KindMem {
			continue
		}
		for _, s := range k.Stages {
			// Only the childless "closed" root (15 ps) is untracked.
			if s.Stage == StageUntracked && s.TotalNS != 0.015 {
				t.Errorf("mem untracked total %g ns, want 0.015: the open root's late children were dropped", s.TotalNS)
			}
		}
	}
	a, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical truncated recorders dumped different bytes")
	}
}

// TestFormatNSMatchesFormatFloat checks the integer picosecond renderer
// against the float formatting it replaced: the named cases, both sides
// of the 2^43 ns cut to the float path, and random times below it.
func TestFormatNSMatchesFormatFloat(t *testing.T) {
	const cut = 1 << 43 * sim.Nanosecond
	times := []sim.Time{0, 1, 999, 1000, 1234567, 1 << 53, cut - 1, cut, cut + 1, 1<<63 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		times = append(times, sim.Time(rng.Int63n(int64(cut))), cut-1-sim.Time(rng.Intn(1e6)))
	}
	for _, ps := range times {
		if got, want := formatNS(ps), strconv.FormatFloat(ps.Nanoseconds(), 'f', 3, 64); got != want {
			t.Fatalf("formatNS(%d ps) = %q, want %q", int64(ps), got, want)
		}
	}
}

// TestAttributionTotalsSumInRootOrder pins the order float totals are
// summed in. One root's end-to-end time dwarfs three others' 6 ps, each
// of which rounds up by a unit in the last place when added to the large
// total alone, but which round to two units when added together first.
// The report sums in root order, as the reference does.
func TestAttributionTotalsSumInRootOrder(t *testing.T) {
	r := NewRecorder(1, 1)
	durations := []sim.Time{34935 << 40, 6, 6, 6}
	var want float64
	for i, d := range durations {
		start := sim.Time(i) * sim.Microsecond
		r.Root(KindMem, "m", start).Finish(start + d)
		want += d.Nanoseconds()
	}
	att := r.Attribution()
	if !reflect.DeepEqual(att, refBuildAttribution(r.Spans())) {
		t.Fatalf("attribution %+v differs from the reference", att)
	}
	if k := att.Kinds[0]; k.TotalNS != want || k.Stages[0].TotalNS != want {
		t.Errorf("end-to-end total %v ns and untracked total %v ns, want %v summed in root order",
			k.TotalNS, k.Stages[0].TotalNS, want)
	}
}

// TestQuantilesMatchSortedRanks checks the selections against the
// nearest-rank samples of a full sort, over sizes either side of the
// cutoff where selection gives way to sorting, with values drawn from
// ranges narrow enough to repeat and wide enough not to, shuffled,
// ascending and descending.
func TestQuantilesMatchSortedRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 16, 17, 18, 100, 1000, 4096} {
		for _, span := range []int64{1, 3, 1 << 40} {
			sorted := make([]sim.Time, n)
			for i := range sorted {
				sorted[i] = sim.Time(rng.Int63n(span))
			}
			slices.Sort(sorted)
			rank := func(q float64) float64 { return sorted[min(int(q*float64(n)), n-1)].Nanoseconds() }
			shuffled := slices.Clone(sorted)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			descending := slices.Clone(sorted)
			slices.Reverse(descending)
			for _, s := range [][]sim.Time{shuffled, slices.Clone(sorted), descending} {
				p50, p95, p99 := quantiles(s)
				if p50 != rank(0.50) || p95 != rank(0.95) || p99 != rank(0.99) {
					t.Fatalf("n %d, values below %d: quantiles %v %v %v, sorted ranks %v %v %v",
						n, span, p50, p95, p99, rank(0.50), rank(0.95), rank(0.99))
				}
			}
		}
	}
}
