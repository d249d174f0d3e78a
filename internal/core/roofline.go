package core

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/sim"
)

// This file is the analytic execution engine for full-application
// workload proxies (Figs. 19-21): a phase-level roofline over the
// platform's peak rates, effective (Infinity-Cache-amplified) memory
// bandwidth, host-link costs, Amdahl-split CPU work, and the socket power
// governor. Microbenchmarks use the detailed event-level models; whole
// applications with seconds of runtime use this engine with the same
// platform parameters.

// Phase is one application phase with a resource footprint.
type Phase struct {
	Name string

	// GPU work.
	GPUFlops float64
	Class    config.EngineClass
	Dtype    config.DataType
	Sparse   bool
	// GPUBytes is HBM-visible traffic; CacheHitRate is the expected
	// Infinity Cache hit fraction for it.
	GPUBytes     float64
	CacheHitRate float64

	// CPU work. CPUSerialFraction is the Amdahl serial part.
	CPUFlops          float64
	CPUBytes          float64
	CPUSerialFraction float64

	// Explicit host<->device copies. Free on unified memory (§VI.B).
	H2DBytes float64
	D2HBytes float64

	// Overlap runs the GPU and CPU portions concurrently; FineGrained
	// additionally pipelines them at element granularity via coherent
	// completion flags (Fig. 15), hiding all but the pipeline fill.
	Overlap     bool
	FineGrained bool

	// Iterations repeats the phase.
	Iterations int
}

// PhaseResult is the timing breakdown of one executed phase.
type PhaseResult struct {
	Name     string
	GPUTime  sim.Time
	CPUTime  sim.Time
	CopyTime sim.Time
	Total    sim.Time
	Throttle float64 // power governor dynamic scale (1 = unthrottled)
	Bound    string  // "compute", "memory", "cpu", or "copy"
	EnergyJ  float64
}

// kernelLaunch is the fixed dispatch cost per GPU phase iteration.
const kernelLaunch = 8 * sim.Microsecond

// EffectiveMemBW reports the platform's bandwidth for traffic with the
// given Infinity Cache hit rate.
func (p *Platform) EffectiveMemBW(hitRate float64) float64 {
	hbm := p.Spec.PeakMemoryBW()
	if p.Spec.InfinityCache == nil || hitRate <= 0 {
		return hbm
	}
	return cache.EffectiveBW(hitRate, p.Spec.InfinityCacheBW(), hbm)
}

// gpuPeak reports peak flops for the phase's numeric configuration.
func (p *Platform) gpuPeak(ph *Phase) float64 {
	if ph.Sparse {
		return p.Spec.PeakSparseFlops(ph.Dtype)
	}
	return p.Spec.PeakFlops(ph.Class, ph.Dtype)
}

// cpuPerf reports (totalFlops/sec, perCoreFlops/sec, memBW) of the CPU
// that drives this platform: the in-package CCDs on an APU, the host
// otherwise.
func (p *Platform) cpuPerf() (total, perCore, bw float64) {
	if p.Spec.CCD != nil {
		perCore = p.Spec.CCD.ClockHz * p.Spec.CCD.FlopsCore
		total = perCore * float64(p.Spec.TotalCores())
		// APU CPUs share the HBM; model a CCD-complex share of it.
		bw = p.Spec.PeakMemoryBW() * 0.25
		if p.Spec.Memory == config.DiscreteMemory {
			bw = p.Spec.Host.DDRBW
		}
		return
	}
	h := p.Spec.Host
	perCore = h.ClockHz * h.FlopsCore
	total = perCore * float64(h.Cores)
	bw = h.DDRBW
	return
}

// applyEfficiency derates peak numbers: real kernels do not hit
// theoretical peaks. These factors are global model constants, not
// per-result tuning knobs.
const (
	gpuComputeEff = 0.80
	gpuMemEff     = 0.85
	cpuEff        = 0.70
	linkEff       = 0.90
)

// RunPhase executes one phase analytically starting at start.
func (p *Platform) RunPhase(start sim.Time, ph Phase) PhaseResult {
	iters := ph.Iterations
	if iters <= 0 {
		iters = 1
	}
	res := PhaseResult{Name: ph.Name, Throttle: 1}

	// Per-iteration GPU roofline.
	var gpuCompute, gpuMem sim.Time
	if peak := p.gpuPeak(&ph); peak > 0 && ph.GPUFlops > 0 {
		gpuCompute = sim.FromSeconds(ph.GPUFlops / (peak * gpuComputeEff))
	}
	if ph.GPUBytes > 0 {
		gpuMem = sim.FromSeconds(ph.GPUBytes / (p.EffectiveMemBW(ph.CacheHitRate) * gpuMemEff))
	}

	// Power governor: pick the activity profile from the phase's bound
	// and stretch the dynamic portion when throttled.
	if p.Power != nil {
		act := power.ComputeIntensive()
		if gpuMem > gpuCompute {
			act = power.MemoryIntensive()
		}
		alloc, scale := p.Power.Allocate(act)
		p.powerAlloc, p.powerScale = alloc, scale
		res.Throttle = scale
		if scale > 0 && scale < 1 {
			gpuCompute = sim.Time(float64(gpuCompute) / scale)
		}
		res.EnergyJ = alloc.Total() // filled per-iteration below
	}

	gpuTime := gpuCompute
	res.Bound = "compute"
	if gpuMem > gpuTime {
		gpuTime = gpuMem
		res.Bound = "memory"
	}
	if ph.GPUFlops > 0 || ph.GPUBytes > 0 {
		gpuTime += kernelLaunch
	}

	// CPU portion with the Amdahl split.
	var cpuTime sim.Time
	if ph.CPUFlops > 0 || ph.CPUBytes > 0 {
		total, perCore, bw := p.cpuPerf()
		f := ph.CPUSerialFraction
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		serial := f * ph.CPUFlops / (perCore * cpuEff)
		parallel := (1 - f) * ph.CPUFlops / (total * cpuEff)
		memT := ph.CPUBytes / (bw * cpuEff)
		ct := serial + parallel
		if memT > ct {
			ct = memT
		}
		cpuTime = sim.FromSeconds(ct)
	}

	// Host<->device copies: zero on unified memory.
	var copyTime sim.Time
	if p.Spec.Memory == config.DiscreteMemory && p.Spec.Host != nil {
		link := p.Spec.Host.LinkBW * linkEff
		copyTime = sim.FromSeconds((ph.H2DBytes + ph.D2HBytes) / link)
	}

	// Compose one iteration.
	var iterTime sim.Time
	switch {
	case ph.FineGrained && p.Spec.Memory == config.UnifiedMemory:
		// Fig. 15: per-element flags pipeline CPU post-processing under
		// the kernel; only the pipeline fill (first element) is exposed.
		fill := gpuTime / 16
		if cpuTime > gpuTime {
			iterTime = cpuTime + fill
		} else {
			iterTime = gpuTime + fill
		}
		iterTime += p.FlagVisibilityLatency()
	case ph.Overlap:
		iterTime = gpuTime
		if cpuTime > iterTime {
			iterTime = cpuTime
		}
	default:
		iterTime = gpuTime + cpuTime
	}
	iterTime += copyTime

	res.GPUTime = gpuTime * sim.Time(iters)
	res.CPUTime = cpuTime * sim.Time(iters)
	res.CopyTime = copyTime * sim.Time(iters)
	res.Total = iterTime * sim.Time(iters)
	if copyTime > gpuTime && copyTime > cpuTime {
		res.Bound = "copy"
	} else if cpuTime > gpuTime && copyTime < cpuTime && !ph.Overlap && !ph.FineGrained {
		res.Bound = "cpu"
	}
	if p.Power != nil {
		res.EnergyJ *= res.Total.Seconds()
	}
	_ = start
	return res
}

// RunPhases executes phases sequentially and returns the total time and
// per-phase results.
func (p *Platform) RunPhases(phases []Phase) (sim.Time, []PhaseResult) {
	var t sim.Time
	results := make([]PhaseResult, 0, len(phases))
	for _, ph := range phases {
		r := p.RunPhase(t, ph)
		t += r.Total
		results = append(results, r)
	}
	return t, results
}
