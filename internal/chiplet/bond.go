package chiplet

import "fmt"

// This file models the 3D hybrid-bonding interface of Fig. 11: both
// V-Cache and MI300 use the same 9 µm-pitch direct-contact bond pads, but
// they differ in what the bond-pad via (BPV) lands on. In V-Cache the BPV
// connects to the SRAM die's top-level metal — fine for a low-power cache
// die. In MI300A the stacked CCDs and XCDs draw far more current, so the
// BPV lands directly on the low-resistance aluminum redistribution layer
// (RDL). This model quantifies that choice as a per-pad resistance and an
// IR-drop check at chiplet power levels.

// BondInterface describes one hybrid-bonded power-delivery interface.
type BondInterface struct {
	Name string
	// PitchUM is the bond pad pitch (9 µm for V-Cache and MI300, §V.A).
	PitchUM float64
	// PadResistanceOhm is per-pad series resistance: bond + BPV + the
	// landing layer's spreading resistance. RDL landing roughly halves
	// it versus thin top-level metal.
	PadResistanceOhm float64
}

// VCacheBond returns the Fig. 11(a) V-Cache-generation interface.
func VCacheBond() BondInterface {
	return BondInterface{
		Name:             "V-Cache (Zen 3)",
		PitchUM:          9,
		PadResistanceOhm: 0.52,
	}
}

// MI300Bond returns the Fig. 11(b) MI300 interface: BPV direct to the
// aluminum RDL, "more effective for delivering power to the compute
// chiplets".
func MI300Bond() BondInterface {
	return BondInterface{
		Name:             "MI300 (RDL landing)",
		PitchUM:          9,
		PadResistanceOhm: 0.21,
	}
}

// PowerPadsUnder reports how many P/G bond pads serve a chiplet footprint
// of areaMM2, assuming the given fraction of the pad grid is assigned to
// power/ground (the rest is signal/spare).
func (b BondInterface) PowerPadsUnder(areaMM2, pgFraction float64) float64 {
	if b.PitchUM <= 0 {
		return 0
	}
	padsPerMM2 := 1e6 / (b.PitchUM * b.PitchUM)
	return padsPerMM2 * areaMM2 * pgFraction
}

// IRDrop reports the supply droop in volts for delivering watts to a
// chiplet of areaMM2 at supplyVolts, with pgFraction of the pads carrying
// power. Half the P/G pads carry current each way, in parallel.
func (b BondInterface) IRDrop(watts, areaMM2, supplyVolts, pgFraction float64) (float64, error) {
	pads := b.PowerPadsUnder(areaMM2, pgFraction)
	if pads < 2 {
		return 0, fmt.Errorf("chiplet: no power pads under %.1f mm²", areaMM2)
	}
	current := watts / supplyVolts
	// Power and ground each use half the pads; resistances in parallel,
	// and the current traverses both networks in series.
	rEff := 2 * b.PadResistanceOhm / (pads / 2)
	return current * rEff, nil
}

// MaxPowerAtDroop reports the deliverable watts for a droop budget (as a
// fraction of supply, e.g. 0.05 for 5%).
func (b BondInterface) MaxPowerAtDroop(areaMM2, supplyVolts, pgFraction, droopFrac float64) float64 {
	pads := b.PowerPadsUnder(areaMM2, pgFraction)
	if pads < 2 {
		return 0
	}
	rEff := 2 * b.PadResistanceOhm / (pads / 2)
	maxCurrent := supplyVolts * droopFrac / rEff
	return maxCurrent * supplyVolts
}
