package spans

import (
	"sort"

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
		g := r.group()
		r.att = aggregate(g.roots, g.kidsOf)
	}
	return r.att
}

// traceGroups holds every root in record order with its trace's
// children: the children of trace slot k fill kids[off[k]:off[k+1]] in
// record order.
type traceGroups struct {
	roots    []*Span
	rootSlot []int32 // roots[i]'s trace slot
	off      []int32
	kids     []*Span
}

// kidsOf returns the children of roots[i]'s trace in record order.
func (g *traceGroups) kidsOf(i int) []*Span {
	k := g.rootSlot[i]
	return g.kids[g.off[k]:g.off[k+1]]
}

// group sorts the store's children by trace in one counting pass: a slot
// per trace, prefix offsets, and one flat []*Span. Grouping is by trace,
// not by root, so roots that share a TraceID (RootTraced) share one slot
// and each sees every child of the trace.
func (r *Recorder) group() *traceGroups {
	// slotOf[i] is span i's trace slot. A child inherits its parent's,
	// found by index (a span's ID is its record index plus one); a root
	// takes its trace's slot, opening one for a new TraceID.
	g := &traceGroups{}
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

// aggregate builds the report from the roots in record order; kidsOf(i)
// returns the children of roots[i]'s trace in record order.
func aggregate(roots []*Span, kidsOf func(i int) []*Span) *Attribution {
	type kindAgg struct {
		kind   string
		e2e    *metrics.Distribution
		total  float64
		stages map[string]*stageAgg
	}
	aggs := make(map[string]*kindAgg)
	var kindOrder []string
	var chain []stageTime
	for i, root := range roots {
		ka := aggs[root.Kind]
		if ka == nil {
			ka = &kindAgg{kind: root.Kind, e2e: new(metrics.Distribution),
				stages: make(map[string]*stageAgg)}
			aggs[root.Kind] = ka
			kindOrder = append(kindOrder, root.Kind)
		}
		e2e := root.End - root.Start
		ka.e2e.Observe(e2e.Nanoseconds())
		ka.total += e2e.Nanoseconds()
		chain = criticalChain(root, kidsOf(i), chain[:0])
		for _, st := range chain {
			sa := ka.stages[st.stage]
			if sa == nil {
				sa = &stageAgg{dist: new(metrics.Distribution)}
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

type stageAgg struct {
	count int
	total float64
	dist  *metrics.Distribution
}

// stageTime is one stage's share of a root's critical chain.
type stageTime struct {
	stage string
	t     sim.Time
}

// addStage adds t to stage's entry in chain, appending the entry on the
// stage's first contribution. A chain holds a handful of stages, so a
// scan beats a map.
func addStage(chain []stageTime, stage string, t sim.Time) []stageTime {
	for i := range chain {
		if chain[i].stage == stage {
			chain[i].t += t
			return chain
		}
	}
	return append(chain, stageTime{stage, t})
}

// criticalChain attributes a root's end-to-end window to stages by
// walking backwards from root.End, appending one entry per stage to out.
// Children overlap freely (chunks fan out over channels in parallel);
// the chain always follows the child that was active at the cursor and
// reaches furthest back, which is the path that actually gated
// completion.
func criticalChain(root *Span, kids []*Span, out []stageTime) []stageTime {
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
			// Gap: jump to the latest child end before the cursor (or the
			// root start) and charge the window to "untracked".
			next := root.Start
			for _, k := range kids {
				if k.End < cursor && k.End > next {
					next = k.End
				}
			}
			out = addStage(out, StageUntracked, cursor-next)
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
		out = addStage(out, stage, cursor-lo)
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
