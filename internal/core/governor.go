package core

import (
	"strings"

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

// Governor tracks the live outcome of the socket power model — the
// current per-domain allocation, the dynamic throttle scale, and a
// hotspot temperature estimate — so telemetry probes can sample a
// power/thermal timeline instead of only end-of-run aggregates. RunPhase
// routes every allocation through it once one exists.
type Governor struct {
	model   *power.Model
	xcdArea float64
	alloc   power.Allocation
	scale   float64
}

// newGovernor starts the governor in the all-idle allocation.
func newGovernor(m *power.Model, xcds int) *Governor {
	g := &Governor{model: m, xcdArea: perXCDAreaMM2 * float64(maxInt(xcds, 1))}
	g.alloc, g.scale = m.Allocate(power.Activity{})
	return g
}

// Governor returns the platform's power governor, building it on first
// use; platforms without a power model (concept parts) return nil.
func (p *Platform) Governor() *Governor {
	if p.gov == nil && p.Power != nil {
		p.gov = newGovernor(p.Power, len(p.XCDs))
	}
	return p.gov
}

// allocatePower is the RunPhase entry point: it routes through the
// governor when one has been built (so telemetry sees phase transitions)
// and falls back to the bare model otherwise.
func (p *Platform) allocatePower(act power.Activity) (power.Allocation, float64) {
	if p.gov != nil {
		return p.gov.Observe(act)
	}
	return p.Power.Allocate(act)
}

// Observe allocates for the activity and records the outcome as the
// governor's current state.
func (g *Governor) Observe(act power.Activity) (power.Allocation, float64) {
	g.alloc, g.scale = g.model.Allocate(act)
	return g.alloc, g.scale
}

// Allocation reports the current per-domain grant.
func (g *Governor) Allocation() power.Allocation { return g.alloc }

// Scale reports the current dynamic throttle factor (1 = unthrottled).
func (g *Governor) Scale() float64 { return g.scale }

// HotspotC estimates the package hotspot from the XCD domain's current
// power density — a closed-form stand-in for the full thermal solve,
// cheap enough to run at sampling cadence.
func (g *Governor) HotspotC() float64 {
	return thermal.HotspotEstimate(hotspotAmbientC, g.alloc[power.DomainXCD], g.xcdArea)
}

// instrumentPower registers the governor's telemetry probes: one watts
// gauge per power domain, the throttle scale, total socket watts, and the
// hotspot estimate.
func (p *Platform) instrumentPower(rec *telemetry.Recorder) {
	g := p.Governor()
	if g == nil {
		return
	}
	for _, d := range power.AllDomains() {
		d := d
		rec.Gauge("power."+strings.ToLower(d.String())+"_w",
			func(sim.Time) float64 { return g.Allocation()[d] })
	}
	rec.Gauge("power.total_w", func(sim.Time) float64 { return g.Allocation().Total() })
	rec.Gauge("power.scale", func(sim.Time) float64 { return g.Scale() })
	rec.Gauge("thermal.hotspot_c", func(sim.Time) float64 { return g.HotspotC() })
}
