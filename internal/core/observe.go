package core

import (
	"math"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// BuildOptions configures platform assembly: what must be threaded in
// while the platform is built rather than attached afterwards. The apusim
// facade's WithSpans option and runner.Ctx.Platform reduce to it.
type BuildOptions struct {
	// Spans, when non-nil, records causal span trees for memory
	// transactions and AQL dispatches.
	Spans *spans.Recorder
}

// NewPlatformWith assembles a platform with explicit build options.
func NewPlatformWith(spec *config.PlatformSpec, opts BuildOptions) (*Platform, error) {
	return newPlatform(spec, opts.Spans)
}

// Instrument registers the full platform probe set on rec, in a fixed
// order (fabric links, HBM, host DDR, Infinity Cache, XCDs, power/
// thermal) so the recorder's column layout is deterministic.
func (p *Platform) Instrument(rec *telemetry.Recorder) {
	telemetry.InstrumentNetwork(rec, p.Net)
	telemetry.InstrumentHBM(rec, p.HBM, "hbm")
	if p.HostDDR != nil {
		telemetry.InstrumentHBM(rec, p.HostDDR, "ddr")
	}
	if p.InfCache != nil {
		telemetry.InstrumentInfinityCache(rec, p.InfCache)
	}
	telemetry.InstrumentXCDs(rec, p.XCDs)
	p.instrumentPower(rec)
}

// AttachAudit registers the platform's conservation ledgers on a, in a
// fixed order mirroring Instrument (fabric, HBM, host DDR, GPU partition,
// governor energy) so reports are deterministic. Safe to call with a nil
// auditor — every registration is then a no-op.
func (p *Platform) AttachAudit(a *audit.Auditor) {
	if !a.Enabled() {
		return
	}
	audit.Fabric(a, p.Net)
	audit.HBM(a, p.HBM, "hbm")
	if p.HostDDR != nil {
		audit.HBM(a, p.HostDDR, "ddr")
	}
	if p.InfCache != nil {
		audit.InfinityCache(a, p.InfCache)
	}
	audit.Partition(a, p.GPU)
	p.attachEnergyAudit(a)
}

// attachEnergyAudit registers the governor's energy-conservation check:
// the per-domain meter and the independent shadow ledger must agree on
// accrued joules within float tolerance. Registered here (not in the
// audit package) because the governor is a core-internal concept.
func (p *Platform) attachEnergyAudit(a *audit.Auditor) {
	g := p.Governor()
	if g == nil {
		return
	}
	a.Register("governor", func(now sim.Time) []audit.Violation {
		meterJ := g.EnergyJ(now)
		shadowJ := g.ShadowEnergyJ(now)
		tol := 1e-9 + 1e-6*math.Max(math.Abs(meterJ), math.Abs(shadowJ))
		if math.Abs(meterJ-shadowJ) > tol {
			return []audit.Violation{{
				Ledger: "energy-conservation",
				Detail: "per-domain energy meter diverged from the Σ watts × dt shadow ledger",
				Want:   shadowJ, Got: meterJ,
			}}
		}
		return nil
	})
}
