package apusim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/chiplet"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/multisocket"
	"repro/internal/power"
	"repro/internal/progmodel"
	"repro/internal/runner"
	"repro/internal/shim"
	"repro/internal/sim"
)

// This file holds the extension experiments beyond the paper's numbered
// tables and figures: ablations of the design choices the paper describes
// in prose (workgroup scheduling policy, Infinity Cache prefetcher,
// dynamic power shifting, the Fig. 11 bond interface, software coherence
// scopes, the §VI.B shim router, and page-migration pseudo-unified
// memory).

// ShimCrossover is one routed call family's CPU/GPU crossover point.
type ShimCrossover struct {
	Platform  string
	Call      string
	Crossover int
}

// ExperimentShim measures where the §VI.B shim library starts routing
// standard calls to the GPU, on the APU versus a discrete platform.
func ExperimentShim(ctx *runner.Ctx) ([]ShimCrossover, *metrics.Table, error) {
	t := metrics.NewTable("§VI.B shim dispatch: CPU→GPU crossover size",
		"Platform", "DGEMM n", "DAXPY n")
	var out []ShimCrossover
	for _, spec := range []*PlatformSpec{config.MI300A(), config.MI250X()} {
		p, err := ctx.Platform(spec)
		if err != nil {
			return nil, nil, err
		}
		r := shim.NewRouter(p)
		gemmN := r.Crossover(shim.DGEMM, 8, 1<<15)
		daxpyN := r.Crossover(shim.DAXPY, 1<<10, 1<<30)
		out = append(out,
			ShimCrossover{p.Spec.Name, "dgemm", gemmN},
			ShimCrossover{p.Spec.Name, "daxpy", daxpyN})
		t.AddRow(p.Spec.Name, fmt.Sprint(gemmN), fmt.Sprint(daxpyN))
	}
	return out, t, nil
}

// ManagedMemoryResult compares true unified memory with page-migration
// pseudo-unified memory and explicit copies.
type ManagedMemoryResult struct {
	APU      *ProgramResult
	Explicit *ProgramResult
	Managed  *ProgramResult
	Stats    *progmodel.MigrationStats
}

// ExperimentManagedMemory runs the §VI.B page-migration contrast: the
// same program under true unified memory (MI300A), explicit hipMemcpy
// (MI250X), and driver page migration (MI250X).
func ExperimentManagedMemory(ctx *runner.Ctx, n int) (*ManagedMemoryResult, *metrics.Table, error) {
	if n <= 0 {
		n = 1 << 22
	}
	apu, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	d1, err := ctx.Platform(config.MI250X())
	if err != nil {
		return nil, nil, err
	}
	d2, err := ctx.Platform(config.MI250X())
	if err != nil {
		return nil, nil, err
	}
	ra, err := progmodel.RunAPU(apu, n)
	if err != nil {
		return nil, nil, err
	}
	re, err := progmodel.RunDiscrete(d1, n)
	if err != nil {
		return nil, nil, err
	}
	rm, st, err := progmodel.RunManaged(d2, n)
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable(fmt.Sprintf("§VI.B unified vs pseudo-unified memory (n=%d)", n),
		"Program", "Platform", "Total", "Data moved", "vs APU")
	for _, r := range []*ProgramResult{ra, re, rm} {
		t.AddRow(r.Program, r.Platform, r.Total.String(),
			metrics.FormatBytes(uint64(r.CopyBytes)),
			fmt.Sprintf("%.2fx", float64(r.Total)/float64(ra.Total)))
	}
	return &ManagedMemoryResult{APU: ra, Explicit: re, Managed: rm, Stats: st}, t, nil
}

// PolicyAblation compares the §VI.A workgroup scheduling policies.
type PolicyAblation struct {
	BlockHitRate float64
	RRHitRate    float64
	BlockTime    sim.Time
	RRTime       sim.Time
}

// ExperimentPolicyAblation runs a tiled kernel (4 consecutive workgroups
// share a 1 MB tile) under block and round-robin scheduling and reports
// L2 reuse and completion time.
func ExperimentPolicyAblation(ctx *runner.Ctx) (*PolicyAblation, *metrics.Table, error) {
	spec := config.MI300A().XCD
	mk := func(policy gpu.Policy) *gpu.Partition {
		rng := sim.NewRNG(7)
		var xs []*gpu.XCD
		for i := 0; i < 6; i++ {
			xs = append(xs, gpu.NewXCD(i, spec, rng))
		}
		p := gpu.NewPartition(policy.String(), xs, nil, policy)
		audit.Partition(ctx.Auditor(), p)
		return p
	}
	k := &gpu.KernelSpec{
		Name: "tiled", Class: config.Matrix, Dtype: config.FP16,
		FlopsPerItem: 1e4, TileBytes: 1 << 20,
		TileOf: func(wgID int) int64 { return int64(wgID/4) * (1 << 20) },
	}
	const items = 6 * 16 * 256
	r := &PolicyAblation{}
	for _, policy := range []gpu.Policy{gpu.PolicyBlock, gpu.PolicyRoundRobin} {
		p := mk(policy)
		done, err := p.Dispatch(0, k, items, 256, 0)
		if err != nil {
			return nil, nil, err
		}
		var st cache.Stats
		for _, x := range p.XCDs() {
			s := x.L2().Stats()
			st.Hits += s.Hits
			st.Misses += s.Misses
		}
		if policy == gpu.PolicyBlock {
			r.BlockHitRate, r.BlockTime = st.HitRate(), done
		} else {
			r.RRHitRate, r.RRTime = st.HitRate(), done
		}
	}
	t := metrics.NewTable("§VI.A workgroup scheduling policy ablation",
		"Policy", "L2 hit rate", "Completion")
	t.AddRow("block (L2 reuse)", fmt.Sprintf("%.2f", r.BlockHitRate), r.BlockTime.String())
	t.AddRow("round-robin (max BW)", fmt.Sprintf("%.2f", r.RRHitRate), r.RRTime.String())
	return r, t, nil
}

// PrefetchAblation compares Infinity Cache hit rates with the stream
// prefetcher on and off.
type PrefetchAblation struct {
	HitRateOn  float64
	HitRateOff float64
}

// ExperimentPrefetchAblation streams sequential traffic through the
// memory-side cache with and without the §IV.D hardware prefetcher.
func ExperimentPrefetchAblation(ctx *runner.Ctx) (*PrefetchAblation, error) {
	run := func(prefetch bool) float64 {
		ic := cache.NewInfinityCache(8, 2<<20, 17e12/16, 25*sim.Nanosecond, prefetch)
		audit.InfinityCache(ctx.Auditor(), ic)
		var now sim.Time
		// A streaming read: each 4 KB interleave granule (32 lines) is a
		// sequential run within one channel's slice, as in §IV.D.
		for i := int64(0); i < 4096; i++ {
			ch := int(i/32) % 8
			res := ic.Access(now, ch, i*config.CacheLineSize, config.CacheLineSize, false)
			now = res.Done
		}
		return ic.HitRate()
	}
	return &PrefetchAblation{HitRateOn: run(true), HitRateOff: run(false)}, nil
}

// PowerShiftAblation compares the dynamic governor with a static TDP
// split.
type PowerShiftAblation struct {
	DynamicXCDWatts float64
	StaticXCDWatts  float64
	DynamicScale    float64
	StaticScale     float64
}

// ExperimentPowerShiftAblation quantifies §V.D-E's vertical power
// shifting against a fixed proportional budget.
func ExperimentPowerShiftAblation() (*PowerShiftAblation, *metrics.Table) {
	m := power.MI300AModel()
	act := power.ComputeIntensive()
	dyn, ds := m.Allocate(act)
	st, ss := m.StaticAllocate(act)
	r := &PowerShiftAblation{
		DynamicXCDWatts: dyn[power.DomainXCD],
		StaticXCDWatts:  st[power.DomainXCD],
		DynamicScale:    ds,
		StaticScale:     ss,
	}
	t := metrics.NewTable("§V.E power shifting ablation (compute-intensive phase)",
		"Governor", "XCD watts", "Throttle scale")
	t.AddRowf("dynamic shifting", r.DynamicXCDWatts, fmt.Sprintf("%.2f", r.DynamicScale))
	t.AddRowf("static split", r.StaticXCDWatts, fmt.Sprintf("%.2f", r.StaticScale))
	return r, t
}

// BondComparison is the Fig. 11 interface comparison.
type BondComparison struct {
	VCacheDroopMV float64
	MI300DroopMV  float64
	VCacheMaxW    float64
	MI300MaxW     float64
}

// ExperimentBondInterface reproduces the Fig. 11 analysis: IR drop and
// deliverable power through the V-Cache-generation versus MI300 hybrid
// bond interfaces at XCD power levels.
func ExperimentBondInterface() (*BondComparison, *metrics.Table, error) {
	const area, volts, pg, droop = 93.5, 0.75, 0.25, 0.03
	v, err := chiplet.VCacheBond().IRDrop(60, area, volts, pg)
	if err != nil {
		return nil, nil, err
	}
	m, err := chiplet.MI300Bond().IRDrop(60, area, volts, pg)
	if err != nil {
		return nil, nil, err
	}
	r := &BondComparison{
		VCacheDroopMV: v * 1000,
		MI300DroopMV:  m * 1000,
		VCacheMaxW:    chiplet.VCacheBond().MaxPowerAtDroop(area, volts, pg, droop),
		MI300MaxW:     chiplet.MI300Bond().MaxPowerAtDroop(area, volts, pg, droop),
	}
	t := metrics.NewTable("Fig. 11: hybrid bond interface, 60 W XCD at 0.75 V",
		"Interface", "IR drop (mV)", "Max W @ 3% droop")
	t.AddRowf("V-Cache (BPV→top metal)", r.VCacheDroopMV, r.VCacheMaxW)
	t.AddRowf("MI300 (BPV→RDL)", r.MI300DroopMV, r.MI300MaxW)
	return r, t, nil
}

// CoherenceScopes is the §IV.D cross-socket coherence analysis.
type CoherenceScopes struct {
	SW1GB     sim.Time
	HW1GB     sim.Time
	Crossover int64
	ProbeTax  float64
}

// ExperimentCoherenceScopes quantifies the software-coherent GPU scope
// design on the Fig. 18(a) node.
func ExperimentCoherenceScopes() (*CoherenceScopes, *metrics.Table, error) {
	s, err := multisocket.NewQuadAPUSystem()
	if err != nil {
		return nil, nil, err
	}
	const gb = 1 << 30
	sw := s.SoftwareCoherentHandoff(gb)
	hw := s.HardwareCoherentHandoff(gb)
	r := &CoherenceScopes{
		SW1GB:     sw.Total,
		HW1GB:     hw.Total,
		Crossover: s.Crossover(64, 1<<30),
		ProbeTax:  s.CoherenceBandwidthTax(gb),
	}
	t := metrics.NewTable("§IV.D cross-socket GPU coherence (1 GB kernel handoff)",
		"Scheme", "Handoff time", "IF bytes")
	t.AddRow("software-coherent (shipped)", sw.Total.String(), metrics.FormatBytes(uint64(sw.IFBytes)))
	t.AddRow("hardware-coherent (rejected)", hw.Total.String(), metrics.FormatBytes(uint64(hw.IFBytes)))
	t.AddRow("crossover size", metrics.FormatBytes(uint64(r.Crossover)), "")
	t.AddRow("probe bandwidth tax", fmt.Sprintf("%.0f%%", r.ProbeTax*100), "")
	return r, t, nil
}

// registerExtraExperiments registers this file's design-choice ablation
// experiments.
func registerExtraExperiments(r *runner.Registry) {
	r.MustRegister(runner.Experiment{ID: "fig11", Desc: "Hybrid bond interface: V-Cache vs MI300 RDL landing",
		Run: func(*runner.Ctx) (string, error) {
			_, t, err := ExperimentBondInterface()
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "shim", Desc: "§VI.B shim library CPU/GPU dispatch crossover",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentShim(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "managed", Desc: "Page-migration pseudo-unified memory vs APU",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentManagedMemory(ctx, 1<<22)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "policy", Desc: "§VI.A workgroup scheduling policy ablation",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentPolicyAblation(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "powershift", Desc: "§V.E dynamic vs static power budget ablation",
		Run: func(*runner.Ctx) (string, error) {
			_, t := ExperimentPowerShiftAblation()
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "scopes", Desc: "§IV.D cross-socket GPU coherence scopes",
		Run: func(*runner.Ctx) (string, error) {
			_, t, err := ExperimentCoherenceScopes()
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "prefetch", Desc: "Infinity Cache stream prefetcher ablation",
		Run: func(ctx *runner.Ctx) (string, error) {
			res, err := ExperimentPrefetchAblation(ctx)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("sequential-stream hit rate: prefetch on %.2f, off %.2f\n",
				res.HitRateOn, res.HitRateOff), nil
		}})
}
