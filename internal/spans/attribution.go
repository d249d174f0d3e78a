package spans

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// AttributionSchema identifies the attribution-report JSON layout.
const AttributionSchema = "apusim-spans-attribution/v1"

// StageStat aggregates one segment stage's critical-path contributions
// across every root of a kind. The quantiles are over per-root
// contributions (how much of each root's end-to-end time the stage owned
// on the critical chain), so they answer "where does a transaction's
// latency go", not "how long is an individual hop".
type StageStat struct {
	Stage string `json:"stage"`
	// Count is how many roots the stage contributed to.
	Count   int     `json:"count"`
	TotalNS float64 `json:"total_ns"`
	P50NS   float64 `json:"p50_ns"`
	P95NS   float64 `json:"p95_ns"`
	P99NS   float64 `json:"p99_ns"`
	// Share is the stage's fraction of the summed end-to-end time.
	Share float64 `json:"share"`
}

// KindAttribution is the latency decomposition for one root kind.
type KindAttribution struct {
	Kind  string `json:"kind"`
	Roots int    `json:"roots"`
	// End-to-end latency quantiles over the kind's roots.
	EndToEndP50NS float64 `json:"e2e_p50_ns"`
	EndToEndP95NS float64 `json:"e2e_p95_ns"`
	EndToEndP99NS float64 `json:"e2e_p99_ns"`
	TotalNS       float64 `json:"total_ns"`
	// Stages are sorted by descending total contribution (name-tiebroken),
	// so the biggest latency consumer reads first.
	Stages []StageStat `json:"stages"`
}

// Attribution is the critical-path latency report embedded in the run
// manifest: per root kind, where end-to-end time went.
type Attribution struct {
	Schema string            `json:"schema"`
	Kinds  []KindAttribution `json:"kinds"`
}

// Attribution computes the critical-path report over the recorded spans.
// For each root it walks a critical chain backwards from the root's end:
// at each cursor it picks the child active at that instant reaching
// furthest back, attributes the covered window to the child's stage, and
// jumps to the child's start; windows no child covers are attributed to
// StageUntracked. The per-root stage contributions therefore sum exactly
// to the root's end-to-end latency.
//
// The report is built once and returned again until a span or an event
// is recorded or changed, so an experiment's report and its run's Dump
// share one build. Callers must not modify it.
func (r *Recorder) Attribution() *Attribution {
	if r == nil {
		return nil
	}
	if r.att == nil {
		r.att = r.attribute()
	}
	return r.att
}

// traceGroups holds every root in record order with its trace's
// children, as record indices: the children of root ordinal i's trace
// fill kids[off[k]:off[k+1]] in record order, where k is i's trace slot.
type traceGroups struct {
	roots []int32 // record index, by root ordinal
	// slot maps a root ordinal to its trace slot: the ordinal of the first
	// root on its TraceID. Nil when no two roots share a TraceID, the
	// usual case, and every root is its own slot.
	slot []int32
	off  []int32
	kids []int32
}

// slotOf returns root ordinal i's trace slot.
func (g *traceGroups) slotOf(i int) int {
	if g.slot == nil {
		return i
	}
	return int(g.slot[i])
}

// kidsOf returns the children of root ordinal i's trace in record order.
func (g *traceGroups) kidsOf(i int) []int32 {
	k := g.slotOf(i)
	return g.kids[g.off[k]:g.off[k+1]]
}

// group sorts the store's children by trace with a counting pass and a
// fill pass over the records. A child names its root's ordinal, so it is
// counted under its root directly. Grouping is by trace, not by root:
// roots that share a TraceID (RootTraced) share one slot, so each sees
// every child of the trace. Sorting a copy of the roots' TraceIDs finds
// any such roots without a map.
func (r *Recorder) group() *traceGroups {
	nroots := r.sampled
	g := &traceGroups{roots: make([]int32, 0, nroots), off: make([]int32, nroots+1)}
	traces := make([]TraceID, 0, nroots)
	r.records(func(base int, recs []record) {
		for j := range recs {
			if s := &recs[j]; s.parent == 0 {
				g.roots = append(g.roots, int32(base+j))
				traces = append(traces, TraceID(s.tree))
			} else {
				g.off[s.tree+1]++
			}
		}
	})
	if uniq := slices.Compact(sortTraces(traces)); len(uniq) < nroots {
		first := make([]int32, len(uniq))
		g.slot = make([]int32, nroots)
		for i, tr := range traces {
			u, _ := slices.BinarySearch(uniq, tr)
			if first[u] == 0 {
				first[u] = int32(i) + 1
			}
			k := first[u] - 1
			g.slot[i] = k
			if k != int32(i) {
				g.off[k+1] += g.off[i+1]
				g.off[i+1] = 0
			}
		}
	}
	for k := 1; k <= nroots; k++ {
		g.off[k] += g.off[k-1]
	}
	next := slices.Clone(g.off[:nroots]) // each slot's fill cursor
	g.kids = make([]int32, r.n-nroots)
	r.records(func(base int, recs []record) {
		for j := range recs {
			if s := &recs[j]; s.parent != 0 {
				k := g.slotOf(int(s.tree))
				g.kids[next[k]] = int32(base + j)
				next[k]++
			}
		}
	})
	return g
}

// sortTraces returns a sorted copy of ts. It deals them into about as
// many buckets as there are traces by their top bits, then sorts each
// bucket: TraceIDs drawn by Root are uniform, so a bucket holds a few.
func sortTraces(ts []TraceID) []TraceID {
	shift := 64 - bits.Len(uint(len(ts)))
	nb := 1 << (64 - shift)
	end := make([]int32, nb+1) // end[b+1] first counts bucket b
	for _, t := range ts {
		end[t>>shift+1]++
	}
	for b := range nb {
		end[b+1] += end[b]
	}
	out := make([]TraceID, len(ts))
	for _, t := range ts {
		b := t >> shift
		out[end[b]] = t
		end[b]++
	}
	// end[b] is now bucket b's end.
	for b, lo := 0, int32(0); b < nb; b++ {
		if end[b]-lo > 1 {
			slices.Sort(out[lo:end[b]])
		}
		lo = end[b]
	}
	return out
}

// kindAgg accumulates one root kind; stages is indexed by stage slot.
type kindAgg struct {
	roots  int
	total  float64
	e2e    []sim.Time
	stages []stageAgg
}

// stageAgg accumulates one stage's critical-path contributions, one
// sample per root.
type stageAgg struct {
	total   float64
	samples []sim.Time
}

// attribute builds the report in one pass over the roots in record
// order. Kinds and stages are indexed by their class in the label table,
// and stage slot len(classes) stands for StageUntracked when no label
// names it. Float totals sum in root order; samples stay integer
// picoseconds, whose nearest-rank quantiles are the samples
// metrics.Distribution.Quantile picks from the float nanoseconds, because
// Nanoseconds is monotonic.
func (r *Recorder) attribute() *Attribution {
	g := r.group()
	nc := len(r.classes)
	untracked := int32(slices.Index(r.classes, StageUntracked))
	if untracked < 0 {
		untracked = int32(nc)
	}
	// stageOf maps a child's class to its stage slot: an empty stage is
	// charged to untracked.
	stageOf := make([]int32, nc)
	for c, s := range r.classes {
		stageOf[c] = int32(c)
		if s == "" {
			stageOf[c] = untracked
		}
	}

	kinds := make([]kindAgg, nc)
	for _, ri := range g.roots {
		kinds[r.labels[r.at(int(ri)).label].class].roots++
	}
	for k := range kinds {
		if ka := &kinds[k]; ka.roots > 0 {
			ka.e2e = make([]sim.Time, 0, ka.roots)
			ka.stages = make([]stageAgg, nc+1)
		}
	}
	var kids []kid
	var chain []stageTime
	for i, ri := range g.roots {
		root := r.at(int(ri))
		ka := &kinds[r.labels[root.label].class]
		e2e := root.end - root.start
		ka.e2e = append(ka.e2e, e2e)
		ka.total += e2e.Nanoseconds()
		kids = r.gather(g.kidsOf(i), stageOf, kids[:0])
		chain = criticalChain(root, kids, untracked, chain[:0])
		for _, st := range chain {
			sa := &ka.stages[st.stage]
			if sa.samples == nil {
				// A stage contributes once per root at most, so the kind's
				// roots from this one on bound its samples.
				sa.samples = make([]sim.Time, 0, ka.roots-len(ka.e2e)+1)
			}
			sa.total += st.t.Nanoseconds()
			sa.samples = append(sa.samples, st.t)
		}
	}

	var order []int
	for k := range kinds {
		if kinds[k].roots > 0 {
			order = append(order, k)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(r.classes[a], r.classes[b]) })
	out := &Attribution{Schema: AttributionSchema}
	for _, k := range order {
		ka := &kinds[k]
		kr := KindAttribution{Kind: r.classes[k], Roots: ka.roots, TotalNS: ka.total}
		kr.EndToEndP50NS, kr.EndToEndP95NS, kr.EndToEndP99NS = quantiles(ka.e2e)
		for s := range ka.stages {
			sa := &ka.stages[s]
			if len(sa.samples) == 0 {
				continue
			}
			st := StageStat{Stage: StageUntracked, Count: len(sa.samples), TotalNS: sa.total}
			if s < nc {
				st.Stage = r.classes[s]
			}
			st.P50NS, st.P95NS, st.P99NS = quantiles(sa.samples)
			if ka.total > 0 {
				st.Share = sa.total / ka.total
			}
			kr.Stages = append(kr.Stages, st)
		}
		slices.SortFunc(kr.Stages, func(a, b StageStat) int {
			if a.TotalNS != b.TotalNS {
				return cmp.Compare(b.TotalNS, a.TotalNS)
			}
			return strings.Compare(a.Stage, b.Stage)
		})
		out.Kinds = append(out.Kinds, kr)
	}
	return out
}

// quantiles returns the nearest-rank 0.50, 0.95 and 0.99 quantiles of s
// in nanoseconds, reordering s: the q-quantile of n samples is the one a
// sort would put at index min(int(q·n), n-1).
func quantiles(s []sim.Time) (p50, p95, p99 float64) {
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	rank := func(q float64) int { return min(int(q*float64(n)), n-1) }
	i50, i95, i99 := rank(0.50), rank(0.95), rank(0.99)
	// Each selection leaves nothing smaller after its index, so the next
	// rank is selected from there on.
	selectNth(s, i50)
	selectNth(s[i50:], i95-i50)
	selectNth(s[i95:], i99-i95)
	return s[i50].Nanoseconds(), s[i95].Nanoseconds(), s[i99].Nanoseconds()
}

// selectNth reorders s so that s[k] holds the value a sort would put
// there, with nothing larger before it and nothing smaller after it. It
// partitions Hoare's way around a median-of-three pivot, which splits
// runs of equal samples evenly, and sorts what is left once the range is
// small or the partitions stop shrinking it fast.
func selectNth(s []sim.Time, k int) {
	for depth := 2 * bits.Len(uint(len(s))); len(s) > 16 && depth > 0; depth-- {
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		p := max(min(a, b), min(max(a, b), c))
		i, j := 0, len(s)-1
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[:j+1] holds nothing above p, s[i:] nothing below it, and
		// anything between equals p.
		switch {
		case k <= j:
			s = s[:j+1]
		case k >= i:
			s, k = s[i:], k-i
		default:
			return
		}
	}
	slices.Sort(s)
}

// kid is one child's interval and stage slot, gathered per root so the
// chain walk scans a dense slice.
type kid struct {
	start, end sim.Time
	stage      int32
	// reach is the latest end among this kid and those before it in start
	// order.
	reach sim.Time
}

// gather appends the records at idx to out as kids, stably sorted by
// start, with their reaches.
func (r *Recorder) gather(idx []int32, stageOf []int32, out []kid) []kid {
	for _, i := range idx {
		s := r.at(int(i))
		out = append(out, kid{start: s.start, end: s.end, stage: stageOf[r.labels[s.label].class]})
	}
	// A transaction's few children arrive almost in start order, which an
	// insertion sort takes in near linear time.
	if len(out) > 32 {
		slices.SortStableFunc(out, func(a, b kid) int { return cmp.Compare(a.start, b.start) })
	}
	for j := 1; j < len(out); j++ {
		for i := j; i > 0 && out[i].start < out[i-1].start; i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	for j := range out {
		out[j].reach = out[j].end
		if j > 0 {
			out[j].reach = max(out[j].end, out[j-1].reach)
		}
	}
	return out
}

// stageTime is one stage's share of a root's critical chain.
type stageTime struct {
	stage int32
	t     sim.Time
}

// addStage adds t to stage's entry in chain, appending the entry on the
// stage's first contribution. A chain holds a handful of stages, so a
// scan beats a map.
func addStage(chain []stageTime, stage int32, t sim.Time) []stageTime {
	for i := range chain {
		if chain[i].stage == stage {
			chain[i].t += t
			return chain
		}
	}
	return append(chain, stageTime{stage, t})
}

// criticalChain attributes a root's end-to-end window to stages by
// walking backwards from root.end, appending one entry per stage to out.
// Children overlap freely (chunks fan out over channels in parallel);
// the chain always follows the child that was active at the cursor and
// reaches furthest back (the earliest in record order among equals),
// which is the path that actually gated completion. With kids in start
// order, two indices only ever move left as the cursor does: the kids
// before hi start before the cursor, and p is the first kid whose reach
// gets to it. A kid is active iff it is among the first hi and its end
// gets to the cursor, so kid p is the pick when p < hi, and otherwise no
// kid is active and the latest end before the cursor is kid hi-1's reach.
func criticalChain(root *record, kids []kid, untracked int32, out []stageTime) []stageTime {
	cursor := root.end
	hi, p := len(kids), len(kids)
	for cursor > root.start {
		for hi > 0 && kids[hi-1].start >= cursor {
			hi--
		}
		for p > 0 && kids[p-1].reach >= cursor {
			p--
		}
		if p >= hi {
			// Gap: jump to the latest child end before the cursor (or the
			// root start) and charge the window to "untracked".
			next := root.start
			if hi > 0 {
				next = max(next, kids[hi-1].reach)
			}
			out = addStage(out, untracked, cursor-next)
			cursor = next
			continue
		}
		lo := max(kids[p].start, root.start)
		out = addStage(out, kids[p].stage, cursor-lo)
		cursor = lo
	}
	return out
}

// Table renders the attribution as a metrics table: one section per kind,
// one row per stage, ordered by share. All values are simulated-time
// nanoseconds, so the rendered table is deterministic.
func (a *Attribution) Table() *metrics.Table {
	t := metrics.NewTable("critical-path latency attribution (per-stage share of end-to-end time)",
		"kind", "stage", "roots", "share %", "p50 ns", "p95 ns", "p99 ns", "total ns")
	if a == nil {
		return t
	}
	for _, k := range a.Kinds {
		t.AddRowf(k.Kind, "(end-to-end)", k.Roots, 100.0,
			k.EndToEndP50NS, k.EndToEndP95NS, k.EndToEndP99NS, k.TotalNS)
		for _, s := range k.Stages {
			t.AddRowf(k.Kind, s.Stage, s.Count, 100*s.Share,
				s.P50NS, s.P95NS, s.P99NS, s.TotalNS)
		}
	}
	return t
}
