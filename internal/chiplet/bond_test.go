package chiplet

import (
	"testing"
	"testing/quick"
)

func TestBondPitchMatchesPaper(t *testing.T) {
	// §V.A: "dense vertical interconnects (9 µm pitch for both AMD
	// V-Cache products and MI300A)".
	if VCacheBond().PitchUM != 9 || MI300Bond().PitchUM != 9 {
		t.Error("bond pitch must be 9 µm for both generations")
	}
}

func TestRDLLandingLowersResistance(t *testing.T) {
	if MI300Bond().PadResistanceOhm >= VCacheBond().PadResistanceOhm {
		t.Error("RDL landing should lower per-pad resistance (Fig. 11)")
	}
}

func TestIRDropXCDPowerLevels(t *testing.T) {
	// An XCD (~93.5 mm²) drawing 60 W at 0.75 V through the MI300
	// interface should droop only a few millivolts; through the V-Cache
	// interface it droops more than twice as much.
	const area, volts, pg = 93.5, 0.75, 0.25
	m, err := MI300Bond().IRDrop(60, area, volts, pg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := VCacheBond().IRDrop(60, area, volts, pg)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 || m > 0.01 {
		t.Errorf("MI300 droop = %.4f V, want small positive (< 10 mV)", m)
	}
	if v/m < 2.0 || v/m > 3.0 {
		t.Errorf("V-Cache/MI300 droop ratio = %.2f, want ~2.5 (resistance ratio)", v/m)
	}
}

func TestMaxPowerAtDroopOrdering(t *testing.T) {
	const area, volts, pg, droop = 93.5, 0.75, 0.25, 0.03
	m := MI300Bond().MaxPowerAtDroop(area, volts, pg, droop)
	v := VCacheBond().MaxPowerAtDroop(area, volts, pg, droop)
	if m <= v {
		t.Errorf("MI300 deliverable power %.0f W should exceed V-Cache %.0f W", m, v)
	}
	// The MI300 interface must comfortably cover a compute chiplet's
	// worst-case draw (~100 W for an XCD).
	if m < 100 {
		t.Errorf("MI300 interface delivers only %.0f W at %.0f%% droop; XCDs need ~100 W",
			m, droop*100)
	}
}

func TestIRDropErrorsOnNoPads(t *testing.T) {
	if _, err := MI300Bond().IRDrop(10, 0, 0.75, 0.25); err == nil {
		t.Error("zero-area chiplet should error")
	}
}

// Property: droop scales linearly with power and inversely with area.
func TestIRDropScalingProperty(t *testing.T) {
	f := func(wRaw, aRaw uint8) bool {
		w := float64(wRaw%80) + 10
		a := float64(aRaw%80) + 20
		b := MI300Bond()
		d1, err1 := b.IRDrop(w, a, 0.75, 0.25)
		d2, err2 := b.IRDrop(2*w, a, 0.75, 0.25)
		d3, err3 := b.IRDrop(w, 2*a, 0.75, 0.25)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return d2 > d1 && d3 < d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
