// Package power models MI300A's socket power management (§V.D-E): a fixed
// socket TDP shared by the compute chiplets, the memory system, and the
// data-movement fabric, with dynamic reallocation between them as
// workloads transition between compute-dominated and memory-intensive
// phases (Fig. 12a).
package power

import (
	"sort"

	"repro/internal/sim"
)

// Domain is a power-consuming subsystem of the socket.
type Domain int

const (
	DomainXCD Domain = iota
	DomainCCD
	DomainHBM
	DomainFabric // IOD data fabric + Infinity Cache
	DomainUSR    // inter-IOD PHYs
	DomainIO     // external x16 PHYs
	numDomains
)

// String names the domain.
func (d Domain) String() string {
	return [...]string{"XCD", "CCD", "HBM", "Fabric", "USR", "IO"}[d]
}

// AllDomains lists every domain.
func AllDomains() []Domain {
	ds := make([]Domain, numDomains)
	for i := range ds {
		ds[i] = Domain(i)
	}
	return ds
}

// DomainSpec is the idle floor and full-activity power of one domain.
type DomainSpec struct {
	IdleW float64
	PeakW float64
}

// Model is a socket power model: per-domain envelopes plus the TDP that
// their sum deliberately exceeds — the whole point of dynamic shifting is
// that not every domain can run flat-out at once.
type Model struct {
	Name    string
	TDP     float64
	Domains [numDomains]DomainSpec
}

// MI300AModel returns the 550 W MI300A socket model. Per-domain envelopes
// are estimates; their sum (~680 W peak) intentionally exceeds TDP so the
// governor must shift power between phases, as in Fig. 12(a).
func MI300AModel() *Model {
	return &Model{
		Name: "MI300A",
		TDP:  550,
		Domains: [numDomains]DomainSpec{
			DomainXCD:    {IdleW: 36, PeakW: 390},
			DomainCCD:    {IdleW: 12, PeakW: 95},
			DomainHBM:    {IdleW: 18, PeakW: 90},
			DomainFabric: {IdleW: 15, PeakW: 60},
			DomainUSR:    {IdleW: 5, PeakW: 30},
			DomainIO:     {IdleW: 4, PeakW: 15},
		},
	}
}

// MI300XModel returns the 750 W MI300X accelerator model (eight XCDs, no
// CCDs).
func MI300XModel() *Model {
	return &Model{
		Name: "MI300X",
		TDP:  750,
		Domains: [numDomains]DomainSpec{
			DomainXCD:    {IdleW: 48, PeakW: 560},
			DomainHBM:    {IdleW: 24, PeakW: 110},
			DomainFabric: {IdleW: 15, PeakW: 65},
			DomainUSR:    {IdleW: 5, PeakW: 35},
			DomainIO:     {IdleW: 4, PeakW: 20},
		},
	}
}

// Activity is per-domain utilization demand in [0,1].
type Activity [numDomains]float64

// Allocation is the granted per-domain power in watts.
type Allocation [numDomains]float64

// Total sums the allocation.
func (a Allocation) Total() float64 {
	var t float64
	for _, v := range a {
		t += v
	}
	return t
}

// Fraction reports domain d's share of the total.
func (a Allocation) Fraction(d Domain) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return a[d] / t
}

// clamp01 bounds x to [0,1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Allocate grants each domain idle + activity×(peak−idle) watts, then, if
// the total exceeds TDP, scales back the dynamic (above-idle) portion of
// every domain proportionally — the model's DVFS. It returns the
// allocation and the applied dynamic scale factor (1 = no throttling).
// The scale is the performance cost of the power wall; callers stretch
// compute time by 1/scale.
func (m *Model) Allocate(act Activity) (Allocation, float64) {
	var alloc Allocation
	var idleSum, dynSum float64
	for d := 0; d < int(numDomains); d++ {
		spec := m.Domains[d]
		a := clamp01(act[d])
		alloc[d] = spec.IdleW + a*(spec.PeakW-spec.IdleW)
		idleSum += spec.IdleW
		dynSum += alloc[d] - spec.IdleW
	}
	scale := 1.0
	if total := idleSum + dynSum; total > m.TDP && dynSum > 0 {
		scale = (m.TDP - idleSum) / dynSum
		if scale < 0 {
			scale = 0
		}
		for d := 0; d < int(numDomains); d++ {
			dyn := alloc[d] - m.Domains[d].IdleW
			alloc[d] = m.Domains[d].IdleW + dyn*scale
		}
	}
	return alloc, scale
}

// StaticAllocate models the ablation case: a fixed per-domain budget
// (TDP split proportionally to peak power) with no dynamic shifting.
// Each domain gets min(demand, its static cap); surplus in one domain
// cannot help another. The dynamic governor's advantage over this is the
// benefit of §V.D-E's vertical power shifting.
func (m *Model) StaticAllocate(act Activity) (Allocation, float64) {
	var peakSum float64
	for _, d := range m.Domains {
		peakSum += d.PeakW
	}
	var alloc Allocation
	worstScale := 1.0
	for d := 0; d < int(numDomains); d++ {
		spec := m.Domains[d]
		if spec.PeakW == 0 {
			continue
		}
		cap := m.TDP * spec.PeakW / peakSum
		want := spec.IdleW + clamp01(act[d])*(spec.PeakW-spec.IdleW)
		if want <= cap {
			alloc[d] = want
			continue
		}
		alloc[d] = cap
		// The throttled domain slows in proportion to its dynamic-power
		// shortfall.
		if dyn := want - spec.IdleW; dyn > 0 {
			scale := (cap - spec.IdleW) / dyn
			if scale < 0 {
				scale = 0
			}
			if scale < worstScale {
				worstScale = scale
			}
		}
	}
	return alloc, worstScale
}

// ComputeIntensive is the Fig. 12(a) GPU-bound scenario: compute chiplets
// at full tilt, moderate memory traffic.
func ComputeIntensive() Activity {
	var a Activity
	a[DomainXCD] = 1.0
	a[DomainCCD] = 0.35
	a[DomainHBM] = 0.35
	a[DomainFabric] = 0.40
	a[DomainUSR] = 0.30
	a[DomainIO] = 0.20
	return a
}

// MemoryIntensive is the Fig. 12(a) bandwidth-bound scenario: the memory
// system, data fabric, and USR links take the power; compute throttles.
func MemoryIntensive() Activity {
	var a Activity
	a[DomainXCD] = 0.45
	a[DomainCCD] = 0.30
	a[DomainHBM] = 1.0
	a[DomainFabric] = 1.0
	a[DomainUSR] = 1.0
	a[DomainIO] = 0.50
	return a
}

// EnergyMeter integrates allocation over simulated time for workload-level
// energy reporting.
type EnergyMeter struct {
	joules [numDomains]float64
	last   sim.Time
	cur    Allocation
}

// SetAllocation records a new operating point from time t onward.
func (e *EnergyMeter) SetAllocation(t sim.Time, a Allocation) {
	e.accrue(t)
	e.cur = a
}

func (e *EnergyMeter) accrue(t sim.Time) {
	if t > e.last {
		dt := (t - e.last).Seconds()
		for d := 0; d < int(numDomains); d++ {
			e.joules[d] += e.cur[d] * dt
		}
		e.last = t
	}
}

// EnergyJ reports integrated energy up to time t.
func (e *EnergyMeter) EnergyJ(t sim.Time) float64 {
	e.accrue(t)
	var total float64
	for _, j := range e.joules {
		total += j
	}
	return total
}

// DomainEnergyJ reports one domain's integrated energy up to time t.
func (e *EnergyMeter) DomainEnergyJ(t sim.Time, d Domain) float64 {
	e.accrue(t)
	return e.joules[d]
}

// TopConsumers returns domains ordered by allocated watts, descending.
func TopConsumers(a Allocation) []Domain {
	ds := AllDomains()
	sort.Slice(ds, func(i, j int) bool { return a[ds[i]] > a[ds[j]] })
	return ds
}
