package apusim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/scale"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file holds the deployment-quality experiments: NPS1 vs NPS4 tenant
// isolation (the QoS rationale behind Fig. 17's memory modes) and the
// energy-efficiency view of the Fig. 20 workloads (the paper's recurring
// "performance and power efficiency" framing).

// TenantIsolation reports how a tenant's achieved bandwidth responds to a
// noisy neighbor under each memory mode.
type TenantIsolation struct {
	NPS            int
	AloneBW        float64 // tenant A streaming alone
	WithNeighborBW float64 // tenant A while tenant B streams too
	DegradationPct float64
}

// ExperimentTenantIsolation streams tenant A's working set with and
// without a saturating neighbor, under NPS1 (shared interleave: high peak,
// no isolation) and NPS4 (dedicated quarter: lower peak, full isolation).
func ExperimentTenantIsolation(ctx *runner.Ctx) ([2]TenantIsolation, *metrics.Table, error) {
	spec := config.MI300X()
	capacity := spec.HBM.TotalCapacity()

	run := func(nps int, withNeighbor bool) (float64, error) {
		h := mem.NewHBM(spec.HBM.Generation, spec.HBM.Stacks, spec.HBM.ChannelsStack,
			spec.HBM.StackBW, capacity, 120*sim.Nanosecond)
		audit.HBM(ctx.Auditor(), h, "hbm")
		if err := h.SetNUMADomains(nps); err != nil {
			return 0, err
		}
		// Tenant A owns the first domain's region; B the second's. Under
		// NPS1 both interleave over everything.
		span := capacity / int64(nps)
		if nps == 1 {
			span = capacity / 4 // same footprint either way
		}
		const chunk = 1 << 20
		const total = 256 << 20
		var aEnd sim.Time
		for off := int64(0); off < total; off += chunk {
			aAddr := off % span
			if done := h.Access(0, aAddr, chunk, off%(2*chunk) == 0); done > aEnd {
				aEnd = done
			}
			if withNeighbor {
				bAddr := span + off%span
				h.Access(0, bAddr%capacity, chunk, true)
			}
		}
		return float64(total) / aEnd.Seconds(), nil
	}

	var out [2]TenantIsolation
	t := metrics.NewTable("Fig. 17 memory modes: tenant isolation under a noisy neighbor",
		"Mode", "Tenant A alone", "A + neighbor", "Degradation")
	for i, nps := range []int{1, 4} {
		alone, err := run(nps, false)
		if err != nil {
			return out, nil, err
		}
		contended, err := run(nps, true)
		if err != nil {
			return out, nil, err
		}
		r := TenantIsolation{NPS: nps, AloneBW: alone, WithNeighborBW: contended}
		if alone > 0 {
			r.DegradationPct = 100 * (1 - contended/alone)
		}
		out[i] = r
		t.AddRow(fmt.Sprintf("NPS%d", nps), metrics.FormatRate(alone),
			metrics.FormatRate(contended), fmt.Sprintf("%.0f%%", r.DegradationPct))
	}
	return out, t, nil
}

// EfficiencyRow is one workload's perf-per-watt comparison.
type EfficiencyRow struct {
	Workload    string
	Speedup     float64 // MI300A over MI250X
	PowerRatio  float64 // MI300A socket power / MI250X
	EfficiencyX float64 // perf/W uplift
}

// ExperimentEfficiency reruns the Fig. 20 workloads and reports
// performance per watt: the paper's framing is explicit that the APU's
// goal is "world-class performance and power efficiency for both HPC and
// ML". Socket powers come from the platform power models (MI300A 550 W
// TDP vs MI250X 560 W), so perf/W uplift ≈ speedup × (560/550).
func ExperimentEfficiency(ctx *runner.Ctx) ([]EfficiencyRow, *metrics.Table, error) {
	a, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	m, err := ctx.Platform(config.MI250X())
	if err != nil {
		return nil, nil, err
	}
	powerRatio := a.Spec.TDPWatts / m.Spec.TDPWatts
	var rows []EfficiencyRow
	t := metrics.NewTable("Energy efficiency: MI300A vs MI250X (socket TDP basis)",
		"Workload", "Speedup", "Power ratio", "Perf/W uplift", "Energy/run ratio")
	for _, w := range workload.Fig20Suite() {
		sp := workload.Speedup(w, a, m)
		r := EfficiencyRow{
			Workload:    w.Name(),
			Speedup:     sp,
			PowerRatio:  powerRatio,
			EfficiencyX: sp / powerRatio,
		}
		rows = append(rows, r)
		// Energy per run: power × time; ratio = powerRatio / speedup.
		t.AddRow(r.Workload, fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.2fx", r.PowerRatio),
			fmt.Sprintf("%.2fx", r.EfficiencyX),
			fmt.Sprintf("%.2fx", powerRatio/sp))
	}
	return rows, t, nil
}

// ExperimentEnergyPerPhase meters domain-level energy for a two-phase
// workload (compute phase then memory phase) under the dynamic governor.
func ExperimentEnergyPerPhase() (*metrics.Table, error) {
	m := power.MI300AModel()
	var meter power.EnergyMeter
	cAlloc, _ := m.Allocate(power.ComputeIntensive())
	mAlloc, _ := m.Allocate(power.MemoryIntensive())
	meter.SetAllocation(0, cAlloc)
	meter.SetAllocation(sim.Second, mAlloc)
	end := 2 * sim.Second
	t := metrics.NewTable("Domain energy over a compute+memory second each (MI300A)",
		"Domain", "Energy (J)", "Share")
	total := meter.EnergyJ(end)
	for _, d := range power.AllDomains() {
		j := meter.DomainEnergyJ(end, d)
		t.AddRow(d.String(), metrics.FormatFloat(j), fmt.Sprintf("%.0f%%", 100*j/total))
	}
	t.AddRow("TOTAL", metrics.FormatFloat(total), "100%")
	return t, nil
}

// ScalePoint mirrors scale.Point for the facade.
type ScalePoint struct {
	Sockets    int
	Speedup    float64
	Efficiency float64
	CommShare  float64
}

// ExperimentStrongScale strong-scales a GROMACS-class workload across the
// Fig. 18(a) quad-APU node with a 1 MB per-step gradient exchange.
func ExperimentStrongScale(ctx *runner.Ctx) ([]ScalePoint, *metrics.Table, error) {
	w := &workload.GROMACS{Atoms: 3_000_000, Steps: 100}
	apu, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	pts, err := scale.StrongScale(ctx.Auditor(), w, apu, topology.QuadAPUNode, 4, 100, 1<<20)
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable("Strong scaling: GROMACS-class work on the Fig. 18a node",
		"Sockets", "Compute", "Comm", "Speedup", "Efficiency")
	var out []ScalePoint
	for _, p := range pts {
		sp := ScalePoint{Sockets: p.Sockets, Speedup: p.Speedup, Efficiency: p.Efficiency}
		if p.Total > 0 {
			sp.CommShare = float64(p.CommTime) / float64(p.Total)
		}
		out = append(out, sp)
		t.AddRow(fmt.Sprint(p.Sockets), p.ComputeTime.String(), p.CommTime.String(),
			fmt.Sprintf("%.2fx", p.Speedup), fmt.Sprintf("%.0f%%", p.Efficiency*100))
	}
	return out, t, nil
}

// registerQoSExperiments registers this file's deployment-quality
// experiments: scaling, isolation, and energy efficiency.
func registerQoSExperiments(r *runner.Registry) {
	r.MustRegister(runner.Experiment{ID: "scale", Desc: "Strong scaling across the Fig. 18a node",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentStrongScale(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "isolation", Desc: "NPS1 vs NPS4 tenant isolation",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentTenantIsolation(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "efficiency", Desc: "Perf/W: MI300A vs MI250X on the Fig. 20 suite",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentEfficiency(ctx)
			if err != nil {
				return "", err
			}
			ctx.Milestone("perf-per-watt")
			te, err := ExperimentEnergyPerPhase()
			if err != nil {
				return "", err
			}
			return t.String() + te.String(), nil
		}})
}
