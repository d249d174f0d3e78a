package spans

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// refBuildAttribution is the attribution builder the recorder's counting
// pass replaced, kept as the test reference: it groups children in a map
// of one slice per trace, then aggregates the same critical chains.
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
	return aggregate(roots, func(i int) []*Span { return children[roots[i].Trace] })
}

// runAttributionDiff records a span forest decoded from prog through the
// recorder API — sampled roots, RootTraced roots on a few shared trace
// IDs, children (of roots and of children) with arbitrary, possibly
// reversed or gapped intervals, finishes, annotations and events — and
// checks the recorder's attribution equals the map-based reference over
// the same spans.
func runAttributionDiff(t testing.TB, prog []byte) {
	r := NewRecorder(uint64(len(prog)), 1)
	kinds := []string{KindMem, KindDispatch}
	stages := []string{StageFabric, StageCache, StageHBM, StageExecute, ""}
	var refs []Ref
	pick := func(b byte) Ref { return refs[int(b)%len(refs)] }
	for i := 0; i+2 < len(prog); i += 3 {
		op, a, b := prog[i], prog[i+1], prog[i+2]
		at, to := sim.Time(a)*10, sim.Time(b)*10
		switch {
		case op%8 == 0:
			refs = append(refs, r.Root(kinds[op>>3%2], "root", at))
		case op%8 == 1:
			refs = append(refs, r.RootTraced(TraceID(op>>3%3), kinds[op>>5%2], "traced", at))
		case len(refs) == 0:
		case op%8 <= 4:
			refs = append(refs, pick(op>>3).Child(stages[int(b)%len(stages)], "child", at, to))
		case op%8 == 5:
			pick(op >> 3).Finish(to)
		case op%8 == 6:
			pick(op>>3).Annotate("k", "v")
		default:
			r.RecordEvent(at, "ras.fault", "x")
		}
	}
	if got, want := r.Attribution(), refBuildAttribution(r.Spans()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d spans: attribution %+v, reference %+v", r.Len(), got, want)
	}
}

// TestAttributionMatchesReference runs the differential over seeded
// random forests, and over two RootTraced roots that share a TraceID,
// each of which must see the other's children.
func TestAttributionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		prog := make([]byte, 3*int(seed))
		rand.New(rand.NewSource(seed)).Read(prog)
		runAttributionDiff(t, prog)
	}
	runAttributionDiff(t, []byte{
		1, 0, 0, // RootTraced on trace 0 at 0 (refs[0])
		2, 0, 5, // a child of refs[0] over [0, 50]
		1, 3, 0, // RootTraced on trace 0 again at 30 (refs[2])
		18, 1, 9, // a child of refs[2] over [10, 90]
		5, 0, 9, // finish refs[0] at 90
		21, 0, 12, // finish refs[2] at 120
	})
}

func FuzzAttributionDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 5, 1, 3, 0, 18, 1, 9, 5, 0, 9, 21, 0, 12})
	f.Add([]byte{0, 0, 0, 2, 0, 5, 3, 9, 2, 8, 20, 4, 13, 40, 30, 5, 0, 50, 7, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) { runAttributionDiff(t, prog) })
}
