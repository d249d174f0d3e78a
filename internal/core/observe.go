package core

import (
	"repro/internal/audit"
	"repro/internal/telemetry"
)

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
