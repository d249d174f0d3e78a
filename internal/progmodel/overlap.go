package progmodel

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// This file implements the Fig. 15 experiment: decoupling GPU production
// from CPU consumption with per-chunk completion flags in the coherent
// unified memory, so the CPU's post-processing pipelines under the kernel
// instead of waiting for a device-level synchronize.

// OverlapResult compares the coarse-grained (kernel-level sync) and
// fine-grained (per-chunk flags) versions of the same producer/consumer
// program.
type OverlapResult struct {
	Platform      string
	Chunks        int
	CoarseTotal   sim.Time
	FineTotal     sim.Time
	Speedup       float64
	FlagsObserved int
	Verified      bool
}

func chunkSize(n, per, c int) int {
	lo := c * per
	hi := lo + per
	if hi > n {
		hi = n
	}
	return hi - lo
}

// RunOverlap executes the producer/consumer program: the GPU produces n
// float64 results in `chunks` batches, setting a coherent flag per batch
// as its data is written (Fig. 15a); the CPU spin-waits on each flag and
// post-processes the batch as soon as it becomes visible (Fig. 15b). The
// coarse version waits for the whole kernel before any CPU work
// (Fig. 15c).
func RunOverlap(p *core.Platform, n, chunks int) (*OverlapResult, error) {
	if p.Spec.Memory != config.UnifiedMemory || p.CPU == nil {
		return nil, fmt.Errorf("progmodel: overlap requires a unified-memory APU")
	}
	if chunks <= 0 || n < chunks {
		return nil, fmt.Errorf("progmodel: bad decomposition n=%d chunks=%d", n, chunks)
	}
	r := &OverlapResult{Platform: p.Spec.Name, Chunks: chunks}
	bytes := int64(n) * 8
	dataAddr, err := p.DeviceMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}
	flagAddr, err := p.DeviceMem.Alloc(int64(chunks)*8, 4096)
	if err != nil {
		return nil, err
	}

	// --- Produce: one GPU dispatch writing data, setting each chunk's
	// flag when its last element lands. ---
	per := (n + chunks - 1) / chunks
	produced := make([]int, chunks)
	// The producer performs nontrivial per-element work (Fig. 15's kernel
	// is a real computation, not a fill), so production and the CPU's
	// consumption proceed at comparable rates — the regime where
	// fine-grained pipelining pays.
	var vals []float64 // reused across workgroups
	k := &gpu.KernelSpec{
		Name:  "produce",
		Class: config.Vector, Dtype: config.FP64,
		FlopsPerItem: 4000, BytesWrittenPerItem: 8,
		Body: func(env *gpu.ExecEnv, xcd, wgID, wgSize int, kernarg int64) {
			lo := wgID * wgSize
			hi := min(lo+wgSize, n)
			if lo >= hi {
				return
			}
			if cap(vals) < hi-lo {
				vals = make([]float64, hi-lo)
			}
			v := vals[:hi-lo]
			for i := range v {
				v[i] = coefA*float64(lo+i) + coefB
			}
			env.Mem.WriteFloat64s(dataAddr+int64(lo)*8, v)
			// Credit each chunk the workgroup overlaps, and set its flag
			// once its last element has landed.
			for c := lo / per; c < chunks && c*per < hi; c++ {
				produced[c] += min(hi, (c+1)*per) - max(lo, c*per)
				if produced[c] == chunkSize(n, per, c) {
					env.Mem.WriteUint64(flagAddr+int64(c)*8, 1)
				}
			}
		},
	}
	gpuStart := sim.Microsecond
	gpuDone, err := p.GPU.Dispatch(gpuStart, k, n, 256, 0)
	if err != nil {
		return nil, err
	}
	kernelSpan := gpuDone - gpuStart

	for c := 0; c < chunks; c++ {
		if p.DeviceMem.ReadUint64(flagAddr+int64(c)*8) == 1 {
			r.FlagsObserved++
		}
	}

	// The consumer is one CPU thread in both versions (the Fig. 15 spin
	// loop), so chunk post-processing accumulates on a single core.
	post := cpu.Task{Name: "post", Flops: float64(per) * 4, BytesRead: int64(per) * 8}
	postTime := p.CPU.TaskTime(post)

	// --- Coarse timing (Fig. 15c): CPU starts after kernel completion. ---
	r.CoarseTotal = gpuDone + postTime*sim.Time(chunks)

	// --- Fine-grained timing (Fig. 15b): chunk c's flag becomes visible
	// as the kernel progresses (linear production ramp); the CPU consumes
	// each chunk as soon as the coherent flag write reaches it. ---
	vis := p.FlagVisibilityLatency()
	t := gpuStart
	for c := 0; c < chunks; c++ {
		flagAt := gpuStart + kernelSpan*sim.Time(c+1)/sim.Time(chunks) + vis
		if flagAt > t {
			t = flagAt
		}
		t += postTime
	}
	r.FineTotal = t
	if r.FineTotal > 0 {
		r.Speedup = float64(r.CoarseTotal) / float64(r.FineTotal)
	}
	r.Verified = sumAndVerify(p.DeviceMem, dataAddr, n) && r.FlagsObserved == chunks
	return r, nil
}
