// Package shim implements the §VI.B automatic-acceleration idea: because
// an APU's data is always accessible to both CPU cores and GPU CUs via the
// in-package HBM, standard library calls (BLAS/LAPACK-style) can be linked
// against a thin dispatch layer that routes each call to CPU or GPU
// processing elements "depending on simple heuristics such as problem
// size, etc." — no explicit code refactoring. This package provides that
// router over the simulated platform, a cost model for both targets, and
// the measured crossover analysis.
package shim

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
)

// Target is where a routed call executes.
type Target int

const (
	// TargetCPU runs the call on the CCD complex.
	TargetCPU Target = iota
	// TargetGPU dispatches the call to the XCD partition.
	TargetGPU
)

// String names the target.
func (t Target) String() string {
	if t == TargetCPU {
		return "CPU"
	}
	return "GPU"
}

// Call is one generic library call with a resource footprint (the shim
// sees only this, not the caller's code).
type Call struct {
	Name  string
	Flops float64
	Bytes float64
	Class config.EngineClass
	Dtype config.DataType
}

// DGEMM describes C = A×B for n×n float64 matrices.
func DGEMM(n int) Call {
	fn := float64(n)
	return Call{
		Name:  fmt.Sprintf("dgemm-%d", n),
		Flops: 2 * fn * fn * fn,
		Bytes: 4 * 3 * fn * fn * 8,
		Class: config.Matrix,
		Dtype: config.FP64,
	}
}

// DAXPY describes y += a*x over n float64 elements.
func DAXPY(n int) Call {
	fn := float64(n)
	return Call{
		Name:  fmt.Sprintf("daxpy-%d", n),
		Flops: 2 * fn,
		Bytes: 24 * fn,
		Class: config.Vector,
		Dtype: config.FP64,
	}
}

// Estimate is the router's cost prediction for one target.
type Estimate struct {
	Target Target
	Time   sim.Time
}

// Router dispatches calls on a platform. On a unified-memory APU there is
// no data-placement question — both estimates read the same HBM — so the
// router is a pure latency comparison plus the GPU's fixed launch cost.
type Router struct {
	p *core.Platform
	// LaunchOverhead is the kernel dispatch cost charged to GPU routes.
	LaunchOverhead sim.Time
	// cpuEff / gpuEff derate theoretical peaks.
	cpuEff, gpuEff float64
}

// NewRouter builds a router for the platform.
func NewRouter(p *core.Platform) *Router {
	return &Router{
		p:              p,
		LaunchOverhead: 8 * sim.Microsecond,
		cpuEff:         0.70,
		gpuEff:         0.80,
	}
}

// EstimateCPU predicts the CPU-side time for the call.
func (r *Router) EstimateCPU(c Call) sim.Time {
	spec := r.p.Spec
	var flops, bw float64
	if spec.CCD != nil {
		flops = spec.CPUPeakFlops() * r.cpuEff
		bw = spec.PeakMemoryBW() * 0.25 * r.cpuEff
	} else if spec.Host != nil {
		flops = float64(spec.Host.Cores) * spec.Host.ClockHz * spec.Host.FlopsCore * r.cpuEff
		bw = spec.Host.DDRBW * r.cpuEff
	} else {
		return sim.Forever
	}
	ct := c.Flops / flops
	mt := c.Bytes / bw
	if mt > ct {
		ct = mt
	}
	return sim.FromSeconds(ct)
}

// EstimateGPU predicts the GPU-side time for the call, including launch
// overhead (and, on discrete platforms, the data movement the APU
// architecture eliminates).
func (r *Router) EstimateGPU(c Call) sim.Time {
	spec := r.p.Spec
	peak := spec.PeakFlops(c.Class, c.Dtype) * r.gpuEff
	if peak == 0 {
		return sim.Forever
	}
	ct := c.Flops / peak
	mt := c.Bytes / (spec.PeakMemoryBW() * r.gpuEff)
	if mt > ct {
		ct = mt
	}
	t := sim.FromSeconds(ct) + r.LaunchOverhead
	if spec.Memory == config.DiscreteMemory && spec.Host != nil {
		// A discrete shim must ship operands over the host link: this is
		// why the transparent-offload story only works on the APU.
		t += sim.FromSeconds(c.Bytes / (spec.Host.LinkBW * 0.9))
	}
	return t
}

// Route picks the faster target for the call.
func (r *Router) Route(c Call) (Target, Estimate, Estimate) {
	cpu := Estimate{Target: TargetCPU, Time: r.EstimateCPU(c)}
	gpu := Estimate{Target: TargetGPU, Time: r.EstimateGPU(c)}
	if gpu.Time < cpu.Time {
		return TargetGPU, cpu, gpu
	}
	return TargetCPU, cpu, gpu
}

// Crossover finds the smallest size in [lo, hi] where the generator's
// call routes to the GPU, by binary search (the routing is monotonic in
// size for the calls above: bigger problems amortize the launch cost).
// It returns hi+1 if the GPU never wins.
func (r *Router) Crossover(gen func(n int) Call, lo, hi int) int {
	return lo + sort.Search(hi-lo+1, func(i int) bool {
		t, _, _ := r.Route(gen(lo + i))
		return t == TargetGPU
	})
}
