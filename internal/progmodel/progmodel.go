// Package progmodel implements the paper's programming-model comparison
// (§VI.B, Figs. 14-15) as executable programs on the simulated platforms:
// the CPU-only program, the discrete-GPU program with hipMalloc/hipMemcpy
// choreography, and the APU program that allocates once in unified memory
// and never copies. Each variant really computes (data is initialized,
// transformed, and checked through the functional memory), and every step
// is timed on the platform's memory, link, and compute models. The
// fine-grained producer/consumer overlap of Fig. 15 is also here.
package progmodel

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Step is one timed program step.
type Step struct {
	Name  string
	Start sim.Time
	End   sim.Time
}

// Duration reports the step's length.
func (s Step) Duration() sim.Time { return s.End - s.Start }

// Result is the outcome of one program run.
type Result struct {
	Program   string
	Platform  string
	Steps     []Step
	Total     sim.Time
	Verified  bool
	CopyBytes int64
}

// step appends a timed step and returns its end.
func (r *Result) step(name string, start, end sim.Time) sim.Time {
	r.Steps = append(r.Steps, Step{Name: name, Start: start, End: end})
	if end > r.Total {
		r.Total = end
	}
	return end
}

// StepByName finds a step, or nil.
func (r *Result) StepByName(name string) *Step {
	for i := range r.Steps {
		if r.Steps[i].Name == name {
			return &r.Steps[i]
		}
	}
	return nil
}

// The program computes y[i] = a*x[i] + b on n float64 elements, then the
// CPU post-processes sum(y). Verification checks the closed form.
const (
	coefA = 3.0
	coefB = 7.0
)

func expectedSum(n int) float64 {
	// sum_{i<n} (3i + 7) = 3 n(n-1)/2 + 7n
	fn := float64(n)
	return coefA*fn*(fn-1)/2 + coefB*fn
}

// blockLen is how many float64s the CPU-side loops move per bulk access:
// one 64-KiB page.
const blockLen = 8192

// initTask returns the CPU task that initializes x[i] = i in the given
// space.
func initTask(space *mem.Space, xAddr int64, n int) cpu.Task {
	chunks := 24
	per := (n + chunks - 1) / chunks
	buf := make([]float64, min(per, blockLen))
	return cpu.Task{
		Name:         "init",
		Flops:        float64(n), // one op per element
		BytesWritten: int64(n) * 8,
		Body: func(chunk int) {
			lo, hi := chunk*per, min((chunk+1)*per, n)
			for lo < hi {
				b := buf[:min(len(buf), hi-lo)]
				for i := range b {
					b[i] = float64(lo + i)
				}
				space.WriteFloat64s(xAddr+int64(lo)*8, b)
				lo += len(b)
			}
		},
	}
}

// sumAndVerify reads y back and checks the closed form. It sums in index
// order, so the result does not depend on the block size.
func sumAndVerify(space *mem.Space, yAddr int64, n int) bool {
	var sum float64
	buf := make([]float64, min(n, blockLen))
	for lo := 0; lo < n; lo += len(buf) {
		b := buf[:min(len(buf), n-lo)]
		space.ReadFloat64s(yAddr+int64(lo)*8, b)
		for _, y := range b {
			sum += y
		}
	}
	want := expectedSum(n)
	diff := sum - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= want*1e-9
}

// axpy computes y = a*x + b over [lo, hi) with one bulk read of x and one
// bulk write of y, through buf (grown as needed; the caller keeps it).
func axpy(space *mem.Space, xAddr, yAddr int64, lo, hi int, buf *[]float64) {
	if lo >= hi {
		return
	}
	if cap(*buf) < hi-lo {
		*buf = make([]float64, hi-lo)
	}
	v := (*buf)[:hi-lo]
	space.ReadFloat64s(xAddr+int64(lo)*8, v)
	for i, x := range v {
		v[i] = coefA*x + coefB
	}
	space.WriteFloat64s(yAddr+int64(lo)*8, v)
}

// axpyKernel builds the GPU kernel y = a*x + b over n elements.
func axpyKernel(xAddr, yAddr int64, n int) *gpu.KernelSpec {
	var buf []float64
	return &gpu.KernelSpec{
		Name:  "axpy",
		Class: config.Vector, Dtype: config.FP64,
		FlopsPerItem: 2, BytesReadPerItem: 8, BytesWrittenPerItem: 8,
		Body: func(env *gpu.ExecEnv, xcd, wgID, wgSize int, kernarg int64) {
			lo := wgID * wgSize
			axpy(env.Mem, xAddr, yAddr, lo, min(lo+wgSize, n), &buf)
		},
	}
}

// cpuComputeTask is the CPU fallback of the same computation.
func cpuComputeTask(space *mem.Space, xAddr, yAddr int64, n int) cpu.Task {
	chunks := 24
	per := (n + chunks - 1) / chunks
	buf := make([]float64, 0, min(per, blockLen))
	return cpu.Task{
		Name:      "compute",
		Flops:     2 * float64(n),
		BytesRead: int64(n) * 8, BytesWritten: int64(n) * 8,
		Body: func(chunk int) {
			lo, hi := chunk*per, min((chunk+1)*per, n)
			for ; lo < hi; lo += blockLen {
				axpy(space, xAddr, yAddr, lo, min(lo+blockLen, hi), &buf)
			}
		},
	}
}

// postTask is the CPU post-processing (reduction over y).
func postTask(n int) cpu.Task {
	return cpu.Task{Name: "post", Flops: float64(n), BytesRead: int64(n) * 8}
}

// hostCPU picks the CPU complex that runs host code on the platform.
func hostCPU(p *core.Platform) *cpu.Complex {
	if p.CPU != nil {
		return p.CPU
	}
	return p.HostCPU
}

// RunCPUOnly executes the Fig. 14(a) program: malloc, init, compute, post —
// all on the CPU.
func RunCPUOnly(p *core.Platform, n int) (*Result, error) {
	r := &Result{Program: "cpu-only", Platform: p.Spec.Name}
	c := hostCPU(p)
	if c == nil {
		return nil, fmt.Errorf("progmodel: %s has no CPU", p.Spec.Name)
	}
	space := p.HostMem
	xAddr, err := space.Alloc(int64(n)*8, 4096)
	if err != nil {
		return nil, err
	}
	yAddr, err := space.Alloc(int64(n)*8, 4096)
	if err != nil {
		return nil, err
	}
	t := r.step("malloc", 0, sim.Microsecond)
	t = r.step("init", t, c.ExecuteParallel(t, initTask(space, xAddr, n), 24))
	t = r.step("compute", t, c.ExecuteParallel(t, cpuComputeTask(space, xAddr, yAddr, n), 24))
	r.step("post", t, c.ExecuteParallel(t, postTask(n), 24))
	r.Verified = sumAndVerify(space, yAddr, n)
	return r, nil
}

// RunDiscrete executes the Fig. 14(b) program on a discrete platform:
// malloc + hipMalloc, init on host, hipMemcpy H2D, kernel launch, device
// synchronize, hipMemcpy D2H, post on host.
func RunDiscrete(p *core.Platform, n int) (*Result, error) {
	if p.Spec.Memory != config.DiscreteMemory {
		return nil, fmt.Errorf("progmodel: %s is not a discrete platform", p.Spec.Name)
	}
	r := &Result{Program: "discrete-gpu", Platform: p.Spec.Name}
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

	// hipMemcpy H2D: functional copy + link timing.
	mem.Copy(p.DeviceMem, dx, p.HostMem, hx, bytes)
	t = r.step("hipMemcpy H2D", t, p.HostLinkTransfer(t, bytes, true))
	r.CopyBytes += bytes

	k := axpyKernel(dx, dy, n)
	done, err := p.GPU.Dispatch(t, k, n, 256, 0)
	if err != nil {
		return nil, err
	}
	t = r.step("kernel+sync", t, done)

	mem.Copy(p.HostMem, hy, p.DeviceMem, dy, bytes)
	t = r.step("hipMemcpy D2H", t, p.HostLinkTransfer(t, bytes, false))
	r.CopyBytes += bytes

	r.step("post(host)", t, c.ExecuteParallel(t, postTask(n), 24))
	r.Verified = sumAndVerify(p.HostMem, hy, n)
	return r, nil
}

// RunAPU executes the Fig. 14(c) program on a unified-memory platform: one
// malloc, init directly in HBM, kernel launch on the same physical pages,
// synchronize, post — no copies anywhere.
func RunAPU(p *core.Platform, n int) (*Result, error) {
	if p.Spec.Memory != config.UnifiedMemory {
		return nil, fmt.Errorf("progmodel: %s is not a unified-memory platform", p.Spec.Name)
	}
	if p.CPU == nil {
		return nil, fmt.Errorf("progmodel: %s has no CPU for the host side", p.Spec.Name)
	}
	r := &Result{Program: "apu-unified", Platform: p.Spec.Name}
	bytes := int64(n) * 8
	xAddr, err := p.DeviceMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}
	yAddr, err := p.DeviceMem.Alloc(bytes, 4096)
	if err != nil {
		return nil, err
	}
	t := r.step("malloc", 0, sim.Microsecond)
	t = r.step("init", t, p.CPU.ExecuteParallel(t, initTask(p.DeviceMem, xAddr, n), 24))
	k := axpyKernel(xAddr, yAddr, n)
	done, err := p.GPU.Dispatch(t, k, n, 256, 0)
	if err != nil {
		return nil, err
	}
	t = r.step("kernel+sync", t, done)
	r.step("post", t, p.CPU.ExecuteParallel(t, postTask(n), 24))
	r.Verified = sumAndVerify(p.DeviceMem, yAddr, n)
	return r, nil
}
