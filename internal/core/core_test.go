package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func mustPlatform(t testing.TB, spec *config.PlatformSpec) *Platform {
	t.Helper()
	p, err := NewPlatform(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNewPlatformAllocBudget pins the cost of building each platform
// before it simulates anything: each budget is about 15% over what a
// build takes. Caches allocate their tag stores on first fill, Infinity
// Cache slices and XCD slot state are built on first use, and fabric
// links and nodes come from chunked slabs; the HBM channels are the one
// per-unit state built eagerly.
func TestNewPlatformAllocBudget(t *testing.T) {
	for _, c := range []struct {
		spec                *config.PlatformSpec
		maxBytes, maxAllocs uint64
	}{
		{config.MI300A(), 39700, 205},
		{config.MI300X(), 45000, 217},
		{config.MI250X(), 24100, 101},
		{config.EHPv4(), 21200, 129},
		{config.BaselineGPU(), 16900, 75},
	} {
		bytes, allocs := bytesAndAllocs(50, func() { sinkPlatform = mustPlatform(t, c.spec) })
		if bytes > c.maxBytes || allocs > c.maxAllocs {
			t.Errorf("NewPlatform(%s) allocates %d B in %d allocations, want at most %d B in %d",
				c.spec.Name, bytes, allocs, c.maxBytes, c.maxAllocs)
		}
	}
}

// bytesAndAllocs reports the heap bytes and allocations one call of f
// makes: each the least per-call average over five windows of runs calls,
// since anything else that allocates inside a window only adds to it.
func bytesAndAllocs(runs int, f func()) (bytes uint64, allocs uint64) {
	bytes, allocs = ^uint64(0), ^uint64(0)
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return bytes, allocs
}

func TestNewPlatformAllSpecs(t *testing.T) {
	for _, spec := range []*config.PlatformSpec{
		config.MI300A(), config.MI300X(), config.MI250X(), config.EHPv4(), config.BaselineGPU(),
	} {
		p, err := NewPlatform(spec, nil)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if len(p.XCDs) != spec.XCDs {
			t.Errorf("%s: %d XCDs built, want %d", spec.Name, len(p.XCDs), spec.XCDs)
		}
		if (p.CPU != nil) != (spec.CCDs > 0) {
			t.Errorf("%s: CPU presence wrong", spec.Name)
		}
		if (p.HostCPU != nil) != (spec.Memory == config.DiscreteMemory) {
			t.Errorf("%s: host CPU presence wrong", spec.Name)
		}
	}
}

func TestUnifiedMemoryIsOneSpace(t *testing.T) {
	a := mustPlatform(t, config.MI300A())
	if a.HostMem != a.DeviceMem {
		t.Error("MI300A host and device memory must be the same Space (§VI.B)")
	}
	m := mustPlatform(t, config.MI250X())
	if m.HostMem == m.DeviceMem {
		t.Error("MI250X host and device memory must be separate Spaces")
	}
}

func TestMI300FabricTopology(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	// Any XCD reaches any HBM stack in at most: bond + (<=2 USR) + stack.
	for x := 0; x < 6; x++ {
		for s := 0; s < 8; s++ {
			hops, err := p.Net.Hops(p.XCDNode(x), p.HBMNode(s))
			if err != nil {
				t.Fatalf("XCD%d->HBM%d: %v", x, s, err)
			}
			if hops > 4 {
				t.Errorf("XCD%d->HBM%d = %d hops, want <= 4", x, s, hops)
			}
		}
	}
	// CCDs live on the fourth IOD and reach all memory.
	if _, err := p.Net.Route(p.CCDNode(0), p.HBMNode(0)); err != nil {
		t.Errorf("CCD->HBM unroutable: %v", err)
	}
}

func TestCPUToHBMHopsEHPv4VsMI300A(t *testing.T) {
	// §III.B Fig. 4 ③: EHPv4's CPU→HBM path needs two die-to-die IF
	// hops; MI300A's needs at most one die-to-die (USR) crossing.
	ehp := mustPlatform(t, config.EHPv4())
	a := mustPlatform(t, config.MI300A())
	eMin, eMax := ehp.CPUToHBMHopsRange()
	if eMin < 2 || eMax < 2 {
		t.Errorf("EHPv4 CPU->HBM die hops = [%d,%d], want every path >= 2", eMin, eMax)
	}
	aMin, _ := a.CPUToHBMHopsRange()
	if aMin != 0 {
		t.Errorf("MI300A nearest CPU->HBM die hops = %d, want 0 (local stacks)", aMin)
	}
}

func TestCrossGPUBandwidthOrdering(t *testing.T) {
	// MI300A's USR mesh must dwarf EHPv4's substrate SerDes (Fig. 4 ①)
	// and MI250X's bridge.
	a := mustPlatform(t, config.MI300A())
	e := mustPlatform(t, config.EHPv4())
	m := mustPlatform(t, config.MI250X())
	if a.CrossGPUBW() <= e.CrossGPUBW() {
		t.Errorf("MI300A cross-GPU BW %g should exceed EHPv4 %g", a.CrossGPUBW(), e.CrossGPUBW())
	}
	if a.CrossGPUBW() <= m.CrossGPUBW() {
		t.Errorf("MI300A cross-GPU BW %g should exceed MI250X %g", a.CrossGPUBW(), m.CrossGPUBW())
	}
	if ratio := a.CrossGPUBW() / e.CrossGPUBW(); ratio < 5 {
		t.Errorf("MI300A/EHPv4 cross-GPU ratio = %.1f, want large (USR vs SerDes)", ratio)
	}
}

func TestMeasuredHBMBandwidthNearPeak(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	achieved := p.MeasureHBMBandwidth(2 << 30)
	frac := achieved / p.Spec.PeakMemoryBW()
	if frac < 0.55 || frac > 1.5 {
		t.Errorf("measured HBM BW = %.2f of peak, want in [0.55, 1.5] (cache amplification can exceed 1)", frac)
	}
}

func TestInfinityCacheAmplifiesBandwidth(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	base := p.EffectiveMemBW(0)
	amp := p.EffectiveMemBW(0.8)
	if base != p.Spec.PeakMemoryBW() {
		t.Errorf("zero-hit BW = %g, want HBM peak", base)
	}
	if amp <= base {
		t.Error("cache hits did not amplify bandwidth")
	}
	if amp > p.Spec.InfinityCacheBW() {
		t.Errorf("amplified BW %g exceeds Infinity Cache peak", amp)
	}
	// MI250X has no Infinity Cache: hit rate is irrelevant.
	m := mustPlatform(t, config.MI250X())
	if m.EffectiveMemBW(0.9) != m.Spec.PeakMemoryBW() {
		t.Error("MI250X should not amplify")
	}
}

func TestHostLinkTransferZeroCopyOnAPU(t *testing.T) {
	a := mustPlatform(t, config.MI300A())
	if end := a.HostLinkTransfer(0, 1<<30, true); end != 0 {
		t.Errorf("APU host transfer took %v, want 0 (zero copy)", end)
	}
	m := mustPlatform(t, config.MI250X())
	end := m.HostLinkTransfer(0, 1<<30, true)
	// 1 GiB over a 64 GB/s link: >= ~16 ms.
	if end.Milliseconds() < 15 {
		t.Errorf("discrete 1 GiB copy = %v, want >= ~16 ms", end)
	}
}

func TestGPUDispatchOnPlatform(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	k := &gpu.KernelSpec{
		Name: "axpy", Class: config.Vector, Dtype: config.FP64,
		FlopsPerItem: 2, BytesReadPerItem: 16, BytesWrittenPerItem: 8,
	}
	done, err := p.GPU.Dispatch(0, k, 1<<18, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("dispatch took no time")
	}
	if p.HBM.BytesMoved() == 0 {
		t.Error("dispatch moved no HBM bytes")
	}
	if p.Net.TotalBytes() == 0 {
		t.Error("dispatch moved no fabric bytes")
	}
}

func TestDevicePresentation(t *testing.T) {
	// MI250X presents each GCD separately: the default partition holds
	// one GCD (§VI.A); MI300A presents all six XCDs as one device.
	m := mustPlatform(t, config.MI250X())
	if got := len(m.GPU.XCDs()); got != 1 {
		t.Errorf("MI250X default device has %d GCDs, want 1", got)
	}
	a := mustPlatform(t, config.MI300A())
	if got := len(a.GPU.XCDs()); got != 6 {
		t.Errorf("MI300A default device has %d XCDs, want 6", got)
	}
}

func TestFlagVisibilityLatencySmall(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	lat := p.FlagVisibilityLatency()
	if lat <= 0 || lat > 2*sim.Microsecond {
		t.Errorf("flag visibility = %v, want sub-microsecond scale", lat)
	}
}

func TestRunPhaseComputeVsMemoryBound(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	c := p.RunPhase(0, Phase{Name: "gemm", GPUFlops: 1e14, Class: config.Matrix, Dtype: config.FP16, GPUBytes: 1e9})
	if c.Bound != "compute" {
		t.Errorf("GEMM bound = %s, want compute", c.Bound)
	}
	m := p.RunPhase(0, Phase{Name: "stream", GPUFlops: 1e10, Class: config.Vector, Dtype: config.FP64, GPUBytes: 1e12})
	if m.Bound != "memory" {
		t.Errorf("STREAM bound = %s, want memory", m.Bound)
	}
	if c.Total <= 0 || m.Total <= 0 {
		t.Error("phases took no time")
	}
}

// TestPowerProbesFollowRunPhase pins the one power-allocation path: the
// power probes start at the idle allocation and then read the
// allocation and throttle scale of the phase RunPhase last ran.
func TestPowerProbesFollowRunPhase(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	rec := telemetry.NewRecorder()
	p.Instrument(rec)
	rec.Sample(0)
	r := p.RunPhase(0, Phase{Name: "gemm", GPUFlops: 1e14, Class: config.Matrix, Dtype: config.FP16, GPUBytes: 1e9})
	rec.Sample(1)
	idle, _ := p.Power.Allocate(power.Activity{})
	busy, scale := p.Power.Allocate(power.ComputeIntensive())
	if r.Throttle != scale {
		t.Errorf("phase throttle = %v, want the compute-intensive scale %v", r.Throttle, scale)
	}
	for _, c := range []struct {
		probe      string
		idle, busy float64
	}{
		{"power.total_w", idle.Total(), busy.Total()},
		{"power.xcd_w", idle[power.DomainXCD], busy[power.DomainXCD]},
		{"power.scale", 1, scale},
	} {
		s, ok := rec.SeriesByName(c.probe)
		if !ok || len(s.Values) != 2 {
			t.Fatalf("%s: series %v, want two samples", c.probe, s.Values)
		}
		if s.Values[0] != c.idle || s.Values[1] != c.busy {
			t.Errorf("%s = %v, want [%v %v]", c.probe, s.Values, c.idle, c.busy)
		}
	}
}

func TestRunPhaseCopyBoundOnDiscrete(t *testing.T) {
	ph := Phase{
		Name: "copyheavy", GPUFlops: 1e10, Class: config.Vector, Dtype: config.FP64,
		GPUBytes: 1e9, H2DBytes: 8e9, D2HBytes: 8e9,
	}
	m := mustPlatform(t, config.MI250X())
	a := mustPlatform(t, config.MI300A())
	rm := m.RunPhase(0, ph)
	ra := a.RunPhase(0, ph)
	if rm.CopyTime <= 0 {
		t.Error("discrete platform charged no copy time")
	}
	if ra.CopyTime != 0 {
		t.Error("APU charged copy time")
	}
	if rm.Total <= ra.Total {
		t.Error("copy-heavy phase should be slower on the discrete platform")
	}
	if rm.Bound != "copy" {
		t.Errorf("discrete bound = %s, want copy", rm.Bound)
	}
}

func TestRunPhaseFineGrainedOverlap(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	base := Phase{
		Name: "pipe", GPUFlops: 5e12, Class: config.Vector, Dtype: config.FP64,
		CPUFlops: 5e11,
	}
	coarse := p.RunPhase(0, base)
	fg := base
	fg.FineGrained = true
	fine := p.RunPhase(0, fg)
	if fine.Total >= coarse.Total {
		t.Errorf("fine-grained %v not faster than coarse %v (Fig. 15)", fine.Total, coarse.Total)
	}
}

func TestRunPhasesAccumulate(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	total, results := p.RunPhases([]Phase{
		{Name: "a", GPUFlops: 1e12, Class: config.Vector, Dtype: config.FP64},
		{Name: "b", GPUFlops: 1e12, Class: config.Vector, Dtype: config.FP64, Iterations: 3},
	})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if total != results[0].Total+results[1].Total {
		t.Error("total != sum of phases")
	}
	if results[1].Total <= results[0].Total*2 {
		t.Error("3 iterations not ~3x of 1")
	}
}

func TestResetStatsClears(t *testing.T) {
	p := mustPlatform(t, config.MI300A())
	p.GPUMemTime(0, 0, 1<<20, false)
	if p.HBM.BytesMoved() == 0 {
		t.Fatal("no traffic generated")
	}
	p.ResetStats()
	if p.HBM.BytesMoved() != 0 || p.Net.TotalBytes() != 0 {
		t.Error("ResetStats incomplete")
	}
}

func BenchmarkGPUMemTime(b *testing.B) {
	p := mustPlatform(b, config.MI300A())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GPUMemTime(sim.Time(i), i%6, 64<<10, i%2 == 0)
	}
}

func BenchmarkNewPlatform(b *testing.B) {
	for _, spec := range []*config.PlatformSpec{config.MI300A(), config.MI300X(), config.MI250X(), config.EHPv4()} {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPlatform = mustPlatform(b, spec)
			}
		})
	}
}

var sinkPlatform *Platform
