package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAllocateWithinTDP(t *testing.T) {
	m := MI300AModel()
	for _, act := range []Activity{ComputeIntensive(), MemoryIntensive(), {}, {DomainXCD: 1, DomainCCD: 1, DomainHBM: 1, DomainFabric: 1, DomainUSR: 1, DomainIO: 1}} {
		alloc, scale := m.Allocate(act)
		if alloc.Total() > m.TDP+1e-9 {
			t.Errorf("allocation %.1f W exceeds TDP %.1f W", alloc.Total(), m.TDP)
		}
		if scale < 0 || scale > 1 {
			t.Errorf("scale = %v out of [0,1]", scale)
		}
	}
}

func TestComputeIntensiveShiftsPowerToXCDs(t *testing.T) {
	m := MI300AModel()
	c, _ := m.Allocate(ComputeIntensive())
	mem, _ := m.Allocate(MemoryIntensive())
	// Fig. 12(a): in the compute case the majority of power goes to the
	// compute chiplets...
	if frac := c.Fraction(DomainXCD); frac < 0.5 {
		t.Errorf("compute-intensive XCD share = %.2f, want > 0.5", frac)
	}
	// ...and in the memory case power shifts to memory/fabric/USR.
	memSide := mem[DomainHBM] + mem[DomainFabric] + mem[DomainUSR]
	cMemSide := c[DomainHBM] + c[DomainFabric] + c[DomainUSR]
	if memSide <= cMemSide {
		t.Errorf("memory-side power did not increase: %.1f vs %.1f W", memSide, cMemSide)
	}
	if mem[DomainXCD] >= c[DomainXCD] {
		t.Errorf("XCD power did not shed in memory phase: %.1f vs %.1f W", mem[DomainXCD], c[DomainXCD])
	}
	if TopConsumers(c)[0] != DomainXCD {
		t.Error("XCDs are not the top consumer in the compute phase")
	}
}

func TestAllocateNoThrottleWhenUnderTDP(t *testing.T) {
	m := MI300AModel()
	var idle Activity
	alloc, scale := m.Allocate(idle)
	if scale != 1 {
		t.Errorf("idle scale = %v, want 1", scale)
	}
	var idleSum float64
	for _, d := range m.Domains {
		idleSum += d.IdleW
	}
	if math.Abs(alloc.Total()-idleSum) > 1e-9 {
		t.Errorf("idle allocation %.1f != idle sum %.1f", alloc.Total(), idleSum)
	}
}

func TestAllocateClampsActivity(t *testing.T) {
	m := MI300AModel()
	var a Activity
	a[DomainXCD] = 5 // out of range
	a[DomainCCD] = -3
	alloc, _ := m.Allocate(a)
	if alloc[DomainXCD] > m.Domains[DomainXCD].PeakW {
		t.Error("activity not clamped high")
	}
	if alloc[DomainCCD] != m.Domains[DomainCCD].IdleW {
		t.Error("activity not clamped low")
	}
}

func TestMI300XModelHasNoCCDPower(t *testing.T) {
	m := MI300XModel()
	if m.Domains[DomainCCD].PeakW != 0 {
		t.Error("MI300X should have no CCD domain power")
	}
	if m.TDP != 750 {
		t.Errorf("MI300X TDP = %v", m.TDP)
	}
}

func TestEnergyMeterIntegrates(t *testing.T) {
	var e EnergyMeter
	m := MI300AModel()
	alloc, _ := m.Allocate(ComputeIntensive())
	e.SetAllocation(0, alloc)
	j := e.EnergyJ(2 * sim.Second)
	want := alloc.Total() * 2
	if math.Abs(j-want) > want*0.001 {
		t.Errorf("energy = %.1f J, want %.1f", j, want)
	}
	if e.DomainEnergyJ(2*sim.Second, DomainXCD) <= 0 {
		t.Error("domain energy missing")
	}
}

func TestEnergyMeterPhaseChange(t *testing.T) {
	var e EnergyMeter
	m := MI300AModel()
	c, _ := m.Allocate(ComputeIntensive())
	mm, _ := m.Allocate(MemoryIntensive())
	e.SetAllocation(0, c)
	e.SetAllocation(sim.Second, mm)
	j := e.EnergyJ(2 * sim.Second)
	want := c.Total() + mm.Total()
	if math.Abs(j-want) > want*0.001 {
		t.Errorf("two-phase energy = %.1f J, want %.1f", j, want)
	}
}

// Property: allocation total never exceeds TDP and every domain stays
// within [idle, peak].
func TestAllocationBoundsProperty(t *testing.T) {
	m := MI300AModel()
	f := func(raw [6]uint8) bool {
		var a Activity
		for i := range raw {
			a[i] = float64(raw[i]) / 255
		}
		alloc, _ := m.Allocate(a)
		if alloc.Total() > m.TDP+1e-9 {
			return false
		}
		for d := 0; d < len(alloc); d++ {
			if alloc[d] < m.Domains[d].IdleW-1e-9 || alloc[d] > m.Domains[d].PeakW+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more activity never yields less total power.
func TestAllocationMonotonicProperty(t *testing.T) {
	m := MI300AModel()
	f := func(raw [6]uint8, bump uint8) bool {
		var lo, hi Activity
		for i := range raw {
			lo[i] = float64(raw[i]) / 255 * 0.8
			hi[i] = lo[i] + float64(bump)/255*0.2
		}
		la, _ := m.Allocate(lo)
		ha, _ := m.Allocate(hi)
		return ha.Total() >= la.Total()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStaticAllocateWithinTDP(t *testing.T) {
	m := MI300AModel()
	for _, act := range []Activity{ComputeIntensive(), MemoryIntensive()} {
		alloc, scale := m.StaticAllocate(act)
		if alloc.Total() > m.TDP+1e-9 {
			t.Errorf("static allocation %.1f W exceeds TDP", alloc.Total())
		}
		if scale <= 0 || scale > 1 {
			t.Errorf("static scale = %v", scale)
		}
	}
}

func TestDynamicShiftingBeatsStaticSplit(t *testing.T) {
	// The §V.E ablation: under a compute-intensive phase the dynamic
	// governor gives the XCDs more power (and so less throttling) than
	// a fixed proportional split can.
	m := MI300AModel()
	act := ComputeIntensive()
	dyn, dynScale := m.Allocate(act)
	st, stScale := m.StaticAllocate(act)
	if dyn[DomainXCD] <= st[DomainXCD] {
		t.Errorf("dynamic XCD power %.1f W should exceed static cap %.1f W",
			dyn[DomainXCD], st[DomainXCD])
	}
	if dynScale < stScale {
		t.Errorf("dynamic throttle %.2f should be no worse than static %.2f", dynScale, stScale)
	}
}
