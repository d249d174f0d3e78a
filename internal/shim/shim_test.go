package shim

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
)

func router(t testing.TB, spec *config.PlatformSpec) *Router {
	t.Helper()
	p, err := core.NewPlatform(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(p)
}

func TestSmallCallsStayOnCPU(t *testing.T) {
	r := router(t, config.MI300A())
	target, cpu, gpu := r.Route(DGEMM(32))
	if target != TargetCPU {
		t.Errorf("dgemm-32 routed to %s (cpu=%v gpu=%v); launch overhead should keep it on CPU",
			target, cpu.Time, gpu.Time)
	}
}

func TestLargeCallsGoToGPU(t *testing.T) {
	r := router(t, config.MI300A())
	target, cpu, gpu := r.Route(DGEMM(4096))
	if target != TargetGPU {
		t.Errorf("dgemm-4096 routed to %s (cpu=%v gpu=%v)", target, cpu.Time, gpu.Time)
	}
	if gpu.Time >= cpu.Time {
		t.Error("GPU estimate not faster for the large call")
	}
}

func TestCrossoverMonotoneAndPlausible(t *testing.T) {
	r := router(t, config.MI300A())
	n := r.Crossover(DGEMM, 8, 8192)
	if n <= 8 || n > 8192 {
		t.Fatalf("DGEMM crossover = %d, want interior point", n)
	}
	// Everything below the crossover routes CPU; above routes GPU.
	if tgt, _, _ := r.Route(DGEMM(n - 1)); tgt != TargetCPU {
		t.Errorf("just below crossover (%d) routed GPU", n-1)
	}
	if tgt, _, _ := r.Route(DGEMM(n + 1)); tgt != TargetGPU {
		t.Errorf("just above crossover (%d) routed CPU", n+1)
	}
}

func TestCrossoverHigherOnDiscrete(t *testing.T) {
	// The §VI.B transparent-offload story: on an APU the GPU becomes
	// profitable at much smaller problems because operands never move.
	apu := router(t, config.MI300A())
	disc := router(t, config.MI250X())
	na := apu.Crossover(DGEMM, 8, 16384)
	nd := disc.Crossover(DGEMM, 8, 16384)
	if nd <= na {
		t.Errorf("discrete crossover (%d) should exceed APU crossover (%d)", nd, na)
	}
}

func TestBandwidthBoundCallsPreferCPUForLongTime(t *testing.T) {
	// DAXPY is pure bandwidth: the GPU only wins once the vector is big
	// enough that launch overhead amortizes against the BW advantage.
	r := router(t, config.MI300A())
	n := r.Crossover(DAXPY, 1<<10, 1<<28)
	if n <= 1<<10 {
		t.Error("tiny daxpy routed to GPU")
	}
	if n > 1<<28 {
		t.Error("huge daxpy never routed to GPU")
	}
}

func TestUnsupportedDtypeNeverRoutesGPU(t *testing.T) {
	r := router(t, config.MI250X())
	c := Call{Name: "fp8gemm", Flops: 1e15, Bytes: 1e9, Class: config.Matrix, Dtype: config.FP8}
	target, _, gpu := r.Route(c)
	if gpu.Time != sim.Forever {
		t.Errorf("FP8 on CDNA2 estimated %v, want Forever", gpu.Time)
	}
	if target != TargetCPU {
		t.Error("unsupported-dtype call routed to GPU")
	}
}

// Property: the router always picks the target with the smaller estimate.
func TestRoutePicksMinimumProperty(t *testing.T) {
	r := router(t, config.MI300A())
	f := func(nRaw uint16, kind uint8) bool {
		n := int(nRaw)%4096 + 1
		var c Call
		switch kind % 3 {
		case 0:
			c = DGEMM(n)
		case 1:
			c = DAXPY(n * 1024)
		default: // a dot product: 2n flops over 16n bytes
			fn := float64(n * 1024)
			c = Call{Name: "ddot", Flops: 2 * fn, Bytes: 16 * fn, Class: config.Vector, Dtype: config.FP64}
		}
		target, cpu, gpu := r.Route(c)
		if gpu.Time < cpu.Time {
			return target == TargetGPU
		}
		return target == TargetCPU
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
