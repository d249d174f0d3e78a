package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file provides service-level counters: wall-clock operational
// metrics for long-running processes (the apusimd daemon), as opposed to
// the simulated-time probes the Recorder samples. A Set holds named
// counter and gauge variables, grouped into Prometheus metric families,
// and renders them in the same text exposition format the run-level sink
// uses — so a daemon's /metrics endpoint and a run's -prom file land in
// the same dashboards.

// Label is one constant key=value pair attached to a metric variable.
type Label struct {
	Key   string
	Value string
}

// Var is one metric variable: a monotonic counter or a settable gauge.
// All methods are safe for concurrent use.
type Var struct {
	counter bool
	labels  string // rendered "{k="v",...}" suffix, possibly empty
	bits    atomic.Uint64
	// fn, when non-nil, supplies the value at scrape time instead of the
	// stored one — for mirroring state owned elsewhere (queue depths,
	// cache occupancy) without a write on every mutation.
	fn func() float64
}

// Add increments the variable by d. Counters reject negative deltas with
// a panic — a shrinking counter is a programming bug, and hiding it would
// corrupt every rate() computed downstream.
func (v *Var) Add(d float64) {
	if v.fn != nil {
		panic("telemetry: Add on a Func metric")
	}
	if v.counter && d < 0 {
		panic(fmt.Sprintf("telemetry: counter decremented by %g", d))
	}
	for {
		old := v.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc increments the variable by one.
func (v *Var) Inc() { v.Add(1) }

// Set stores an absolute value. Only gauges may be set; counters are
// monotonic by contract.
func (v *Var) Set(x float64) {
	if v.fn != nil {
		panic("telemetry: Set on a Func metric")
	}
	if v.counter {
		panic("telemetry: Set on a counter (counters are monotonic; use Add)")
	}
	v.bits.Store(math.Float64bits(x))
}

// Value returns the current value.
func (v *Var) Value() float64 {
	if v.fn != nil {
		return v.fn()
	}
	return math.Float64frombits(v.bits.Load())
}

// family is one Prometheus metric family: every Var (or Histogram)
// sharing a name — and therefore HELP/TYPE — distinguished by labels.
type family struct {
	name string
	help string
	typ  string
	vars []*Var
	// hists holds histogram families' variables, keyed by rendered label
	// suffix so Histogram() is get-or-create: the same (name, labels)
	// always returns the same variable, which lets callers register
	// per-tenant or per-experiment series lazily without double counting.
	hists  []*Histogram
	byHist map[string]*Histogram
}

// Set is an ordered collection of service-level metric variables. The
// zero value is not usable; call NewSet. Registration order is
// presentation order, so the rendered exposition text is deterministic.
type Set struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{byName: make(map[string]*family)}
}

// Counter registers (or extends) a monotonic counter family and returns
// the variable for the given label combination. Names are sanitized to
// legal metric names; registering the same name with a different type
// panics — a family's type is part of its contract.
func (s *Set) Counter(name, help string, labels ...Label) *Var {
	return s.register(name, help, "counter", nil, labels)
}

// Gauge registers (or extends) a gauge family and returns the variable
// for the given label combination.
func (s *Set) Gauge(name, help string, labels ...Label) *Var {
	return s.register(name, help, "gauge", nil, labels)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic state owned by another component (e.g. a cache's
// internal hit count). fn must be safe for concurrent use.
func (s *Set) CounterFunc(name, help string, fn func() float64, labels ...Label) *Var {
	return s.register(name, help, "counter", fn, labels)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (s *Set) GaugeFunc(name, help string, fn func() float64, labels ...Label) *Var {
	return s.register(name, help, "gauge", fn, labels)
}

func (s *Set) register(name, help, typ string, fn func() float64, labels []Label) *Var {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.familyLocked(name, help, typ)
	v := &Var{counter: typ == "counter", labels: string(appendLabels(nil, labels)), fn: fn}
	f.vars = append(f.vars, v)
	return v
}

// Histogram registers (or extends) a histogram family and returns the
// variable for the given label combination. Unlike Counter/Gauge it is
// get-or-create: calling it again with the same name and labels returns
// the existing variable, so dynamically discovered label values (tenants,
// experiments) can register on first observation. Every variable in a
// family must share its bucket layout — mismatched bounds panic.
//
// Finding an existing variable allocates nothing: the label suffix is
// rendered into a stack buffer and the bounds are compared in place.
func (s *Set) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	var buf [128]byte
	key := appendLabels(buf[:0], labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.familyLocked(name, help, "histogram")
	if old := f.byHist[string(key)]; old != nil {
		if !slices.Equal(old.bounds, bounds) {
			panic(fmt.Sprintf("telemetry: histogram %s%s re-registered with different buckets", f.name, string(key)))
		}
		return old
	}
	if f.byHist == nil {
		f.byHist = make(map[string]*Histogram)
	}
	h := newHistogram(bounds, string(key))
	f.byHist[h.key] = h
	f.hists = append(f.hists, h)
	// Keep exposition order deterministic regardless of which label value
	// was observed first: histograms render sorted by label suffix.
	sort.Slice(f.hists, func(i, j int) bool { return f.hists[i].key < f.hists[j].key })
	return h
}

// familyLocked finds or creates the named family; s.mu must be held. A
// name that is already legal finds its family without being sanitized.
func (s *Set) familyLocked(name, help, typ string) *family {
	f := s.byName[name]
	if f == nil {
		clean := promSanitize(name)
		if f = s.byName[clean]; f == nil {
			f = &family{name: clean, help: help, typ: typ}
			s.byName[clean] = f
			s.families = append(s.families, f)
		}
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", f.name, f.typ, typ))
	}
	return f
}

// appendLabels appends constant labels to dst as an exposition-format
// suffix, {k="v",...}, with keys sanitized and values escaped; no labels
// append nothing. The pairs are sorted by key so equivalent label sets
// render identically, and the sort is stable, so duplicate keys render in
// call order. It is the one label renderer: Var suffixes and histogram
// lookup keys both come from it.
func appendLabels(dst []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return dst
	}
	// Sort a stack copy: the caller's slice keeps its order.
	var stack [4]Label
	sorted := append(stack[:0], labels...)
	slices.SortStableFunc(sorted, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	dst = append(dst, '{')
	for i, l := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSanitized(dst, l.Key)
		dst = append(dst, '=', '"')
		dst = append(dst, promEscape(l.Value)...)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// Values returns a snapshot of every registered variable, keyed by its
// full sample name ("family" or "family{label=\"v\"}"). Func metrics are
// read at snapshot time. It exists so in-process consumers — recovery
// assertions, health summaries — can read the same numbers /v1/metrics
// exposes without parsing exposition text.
func (s *Set) Values() map[string]float64 {
	s.mu.Lock()
	fams := make([]*family, len(s.families))
	copy(fams, s.families)
	s.mu.Unlock()

	out := make(map[string]float64)
	for _, f := range fams {
		for _, v := range f.vars {
			out[f.name+v.labels] = v.Value()
		}
		for _, h := range f.hists {
			snap := h.Snapshot()
			out[f.name+"_count"+h.key] = float64(snap.Count)
			out[f.name+"_sum"+h.key] = snap.Sum
		}
	}
	return out
}

// WritePromText renders every registered family in Prometheus text
// exposition format (version 0.0.4): HELP and TYPE once per family, then
// one sample line per variable, all in registration order.
func (s *Set) WritePromText(w io.Writer) error {
	s.mu.Lock()
	// Snapshot the structure so value reads (which may call user fns)
	// happen outside the set lock.
	fams := make([]*family, len(s.families))
	copy(fams, s.families)
	s.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, v := range f.vars {
			fmt.Fprintf(&b, "%s%s %s\n", f.name, v.labels, promFloat(v.Value()))
		}
		for _, h := range f.hists {
			h.writeProm(&b, f.name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeProm renders one histogram variable in the Prometheus histogram
// exposition shape: cumulative _bucket samples with le labels (including
// the mandatory +Inf bucket), then _sum and _count. All samples derive
// from one consistent snapshot.
func (h *Histogram) writeProm(b *strings.Builder, name string) {
	snap := h.Snapshot()
	withLE := func(le string) string {
		inner := fmt.Sprintf("le=%q", le)
		if h.key == "" {
			return "{" + inner + "}"
		}
		return strings.TrimSuffix(h.key, "}") + "," + inner + "}"
	}
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(promFloat(bound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE("+Inf"), snap.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, h.key, promFloat(snap.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, h.key, snap.Count)
}
