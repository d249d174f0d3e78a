package telemetry

import "fmt"

// DumpSchema identifies the series-dump JSON layout; bump on incompatible
// changes.
const DumpSchema = "apusim-telemetry/v1"

// Dump is the full sampled store in columnar form. Everything in it is
// deterministic for a given seed and fault plan: identical runs produce
// byte-identical JSON at any parallelism degree.
// (Handler wall time is deliberately absent — see Summary.)
type Dump struct {
	Schema   string      `json:"schema"`
	SampleNS float64     `json:"sample_ns,omitempty"`
	TimesNS  []float64   `json:"times_ns"`
	Series   []Series    `json:"series"`
	Engine   *EngineDump `json:"engine,omitempty"`
}

// EngineDump is the deterministic slice of the engine profile.
type EngineDump struct {
	Classes        []ClassCount `json:"classes,omitempty"`
	QueueHighWater int          `json:"queue_high_water"`
}

// ClassCount is one handler class's fired-event count.
type ClassCount struct {
	Class string `json:"class"`
	Fired uint64 `json:"fired"`
}

// Dump snapshots the recorder's store.
func (r *Recorder) Dump() *Dump {
	d := &Dump{
		Schema:  DumpSchema,
		TimesNS: make([]float64, len(r.times)),
		Series:  r.AllSeries(),
	}
	if r.cadence > 0 {
		d.SampleNS = r.cadence.Nanoseconds()
	}
	for i, t := range r.times {
		d.TimesNS[i] = t.Nanoseconds()
	}
	if r.eng != nil {
		ed := &EngineDump{QueueHighWater: r.eng.QueueHighWater()}
		for _, c := range r.eng.ProfileSnapshot() {
			ed.Classes = append(ed.Classes, ClassCount{Class: c.Name, Fired: c.Fired})
		}
		d.Engine = ed
	}
	return d
}

// ProbeSummary is one probe's compact statistics.
type ProbeSummary struct {
	Name string  `json:"name"`
	Kind Kind    `json:"kind"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	Last float64 `json:"last"`
}

// ClassStats accumulates execution counters for one engine handler class.
type ClassStats struct {
	Class string `json:"class"`
	// Fired counts events executed under this class — deterministic for a
	// given seed and fault plan.
	Fired uint64 `json:"fired"`
	// WallNS is the cumulative wall-clock handler cost. It is inherently
	// nondeterministic and therefore appears only in Summary, never in
	// the byte-stable Dump.
	WallNS int64 `json:"wall_ns"`
}

// EngineSummary is the engine profile including wall-clock handler cost.
type EngineSummary struct {
	Classes        []ClassStats `json:"classes,omitempty"`
	QueueHighWater int          `json:"queue_high_water"`
}

// Summary is the compact per-run telemetry block embedded in the
// apusim-run-manifest/v1 experiment record. Unlike Dump it includes
// wall-ns per handler class, so it is not byte-stable across runs — the
// manifest it lands in already carries wall_ms fields.
type Summary struct {
	Schema   string         `json:"schema"`
	Samples  int            `json:"samples"`
	SampleNS float64        `json:"sample_ns,omitempty"`
	Probes   []ProbeSummary `json:"probes,omitempty"`
	Engine   *EngineSummary `json:"engine,omitempty"`
}

// Summary reduces the store to per-probe min/max/mean/last plus the
// engine profile.
func (r *Recorder) Summary() *Summary {
	s := &Summary{Schema: DumpSchema, Samples: len(r.times)}
	if r.cadence > 0 {
		s.SampleNS = r.cadence.Nanoseconds()
	}
	for _, p := range r.probes {
		ps := ProbeSummary{Name: p.name, Kind: p.kind}
		if n := len(p.values); n > 0 {
			ps.Min, ps.Max = p.values[0], p.values[0]
			var sum float64
			for _, v := range p.values {
				if v < ps.Min {
					ps.Min = v
				}
				if v > ps.Max {
					ps.Max = v
				}
				sum += v
			}
			ps.Mean = sum / float64(n)
			ps.Last = p.values[n-1]
		}
		s.Probes = append(s.Probes, ps)
	}
	if r.eng != nil {
		es := &EngineSummary{QueueHighWater: r.eng.QueueHighWater()}
		for _, c := range r.eng.ProfileSnapshot() {
			es.Classes = append(es.Classes, ClassStats{Class: c.Name, Fired: c.Fired, WallNS: c.WallNS})
		}
		s.Engine = es
	}
	return s
}

// String renders a one-line description ("N samples × M probes @ cadence"),
// used by experiment outputs that want a deterministic telemetry footer.
func (d *Dump) String() string {
	cad := "-"
	if d.SampleNS > 0 {
		cad = fmt.Sprintf("%gns", d.SampleNS)
	}
	return fmt.Sprintf("%d samples x %d probes @ %s", len(d.TimesNS), len(d.Series), cad)
}
