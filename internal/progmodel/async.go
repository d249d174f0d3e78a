package progmodel

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// This file models the strongest version of the discrete-GPU programming
// model: asynchronous copies on dedicated DMA engines with double
// buffering (hipMemcpyAsync + streams), pipelining H2D copies, kernel
// execution, and D2H copies across chunks. This is the fairest
// comparison point for the APU — and the APU still wins, because the
// pipeline can at best hide min(copy, compute) while the APU removes the
// copies entirely.

// AsyncResult reports the pipelined run.
type AsyncResult struct {
	Result
	Chunks int
	// CopyExposed is the copy time NOT hidden by the pipeline.
	CopyExposed sim.Time
}

// RunDiscreteAsync executes the Fig. 14 computation on a discrete
// platform with chunked, double-buffered async copies: chunk i's H2D
// overlaps chunk i-1's kernel, which overlaps chunk i-2's D2H.
func RunDiscreteAsync(p *core.Platform, n, chunks int) (*AsyncResult, error) {
	if p.Spec.Memory != config.DiscreteMemory {
		return nil, fmt.Errorf("progmodel: async copies model a discrete platform")
	}
	if chunks <= 0 || n < chunks {
		return nil, fmt.Errorf("progmodel: bad chunking n=%d chunks=%d", n, chunks)
	}
	if per := (n + chunks - 1) / chunks; per%256 != 0 {
		return nil, fmt.Errorf("progmodel: chunk size %d must be a multiple of the 256-wide workgroup", per)
	}
	r := &AsyncResult{Chunks: chunks}
	r.Program = "discrete-async"
	r.Platform = p.Spec.Name
	c := hostCPU(p)
	bytes := int64(n) * 8

	hx, err := p.HostMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}
	hy, err := p.HostMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}
	dx, err := p.DeviceMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}
	dy, err := p.DeviceMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}

	t := r.step("malloc+hipMalloc", 0, 2*sim.Microsecond)
	t = r.step("init(host)", t, c.ExecuteParallel(t, initTask(p.HostMem, hx, n), 24))

	// Functional transfer + compute (all chunks; data correctness is
	// independent of the pipelining).
	mem.Copy(p.DeviceMem, dx, p.HostMem, hx, bytes)
	k := axpyKernel(dx, dy, n)

	// Pipelined timing across three resources: the H2D DMA engine, the
	// GPU, and the D2H DMA engine. Each chunk flows through in order.
	per := (n + chunks - 1) / chunks
	chunkBytes := int64(per) * 8
	link := p.Spec.Host.LinkBW * 0.9
	copyTime := sim.FromSeconds(float64(chunkBytes) / link)

	var h2dFree, gpuFree, d2hFree sim.Time
	h2dFree, gpuFree, d2hFree = t, t, t
	var pipelineEnd sim.Time
	var kernelBusy sim.Time
	for i := 0; i < chunks; i++ {
		h2dDone := h2dFree + copyTime
		h2dFree = h2dDone

		// Kernel for this chunk starts when its data is resident and
		// the GPU is free.
		kStart := h2dDone
		if gpuFree > kStart {
			kStart = gpuFree
		}
		lo := i * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		kDone, err := p.GPU.Dispatch(kStart, kernelSlice(k, lo, hi), hi-lo, 256, 0)
		if err != nil {
			return nil, err
		}
		kernelBusy += kDone - kStart
		gpuFree = kDone

		dStart := kDone
		if d2hFree > dStart {
			dStart = d2hFree
		}
		d2hDone := dStart + copyTime
		d2hFree = d2hDone
		if d2hDone > pipelineEnd {
			pipelineEnd = d2hDone
		}
	}
	mem.Copy(p.HostMem, hy, p.DeviceMem, dy, bytes)
	r.CopyBytes = 2 * bytes

	t = r.step("pipeline(h2d|kernel|d2h)", t, pipelineEnd)
	r.step("post(host)", t, c.ExecuteParallel(t, postTask(n), 24))
	r.Verified = sumAndVerify(p.HostMem, hy, n)
	// Exposed copy time: pipeline span minus the kernel busy time.
	span := pipelineEnd - (r.StepByName("pipeline(h2d|kernel|d2h)").Start)
	if span > kernelBusy {
		r.CopyExposed = span - kernelBusy
	}
	return r, nil
}

// kernelSlice adapts the axpy kernel to operate on [lo, hi) with
// dispatch-local workgroup IDs (lo must be workgroup-aligned).
func kernelSlice(k *gpu.KernelSpec, lo, hi int) *gpu.KernelSpec {
	sliced := *k
	inner := k.Body
	sliced.Body = func(env *gpu.ExecEnv, xcd, wgID, wgSize int, kernarg int64) {
		// Re-base the workgroup ID so the body touches [lo, hi).
		inner(env, xcd, wgID+lo/wgSize, wgSize, kernarg)
	}
	_ = hi
	return &sliced
}
