package core

import (
	"strings"

	"repro/internal/audit"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/thermal"
)

// perXCDAreaMM2 approximates one XCD die's area for the hotspot power
// density estimate (~115 mm² in TSMC N5, §IV.B).
const perXCDAreaMM2 = 115.0

// hotspotAmbientC matches the thermal solver's default coolant
// temperature.
const hotspotAmbientC = 35.0

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

// instrumentPower registers the power probes: one watts gauge per power
// domain, the throttle scale, total socket watts, and a hotspot estimate
// from the XCD domain's power density. They read the allocation RunPhase
// last made, starting from the all-idle one; platforms without a power
// model (concept parts) register none.
func (p *Platform) instrumentPower(rec *telemetry.Recorder) {
	if p.Power == nil {
		return
	}
	p.powerAlloc, p.powerScale = p.Power.Allocate(power.Activity{})
	xcdArea := perXCDAreaMM2 * float64(max(len(p.XCDs), 1))
	for _, d := range power.AllDomains() {
		rec.Gauge("power."+strings.ToLower(d.String())+"_w",
			func(sim.Time) float64 { return p.powerAlloc[d] })
	}
	rec.Gauge("power.total_w", func(sim.Time) float64 { return p.powerAlloc.Total() })
	rec.Gauge("power.scale", func(sim.Time) float64 { return p.powerScale })
	rec.Gauge("thermal.hotspot_c", func(sim.Time) float64 {
		return thermal.HotspotEstimate(hotspotAmbientC, p.powerAlloc[power.DomainXCD], xcdArea)
	})
}

// AttachAudit registers the platform's conservation ledgers on a, in a
// fixed order mirroring Instrument (fabric, HBM, host DDR, Infinity
// Cache, GPU partition) so reports are deterministic. Safe to call with a
// nil auditor — every registration is then a no-op.
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
}
