package telemetry

import (
	"sort"

	"repro/internal/sim"
)

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

// EngineProfile is a view over an engine's per-class aggregate counters.
//
// The engine keeps per-class-ID counters itself (two integer bumps per
// event, no callback, nothing while profiling is off — so unprofiled
// runs pay nothing), and this type reduces the
// end-of-run ProfileSnapshot to the stable ClassStats shape the dump and
// summary sinks embed.
type EngineProfile struct {
	eng *sim.Engine
}

// NewEngineProfile enables aggregate per-class profiling on eng and
// returns the view over its counters.
func NewEngineProfile(eng *sim.Engine) *EngineProfile {
	eng.EnableProfiling()
	return &EngineProfile{eng: eng}
}

// Classes returns per-class stats sorted by class name, so profile output
// is stable regardless of execution interleaving. Only classes that fired
// at least one event appear.
func (p *EngineProfile) Classes() []ClassStats {
	snap := p.eng.ProfileSnapshot()
	out := make([]ClassStats, 0, len(snap))
	for _, c := range snap {
		out = append(out, ClassStats{Class: c.Name, Fired: c.Fired, WallNS: c.WallNS})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
