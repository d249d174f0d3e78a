package config

import (
	"math"
	"testing"
	"testing/quick"
)

func allPlatforms() []*PlatformSpec {
	return []*PlatformSpec{MI300A(), MI300X(), MI250X(), EHPv4(), BaselineGPU()}
}

func TestAllPlatformsValidate(t *testing.T) {
	for _, p := range allPlatforms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestMI300ACounts(t *testing.T) {
	p := MI300A()
	if got := p.TotalCUs(); got != 228 {
		t.Errorf("MI300A CUs = %d, want 228 (§IV.B)", got)
	}
	if got := p.TotalCores(); got != 24 {
		t.Errorf("MI300A cores = %d, want 24 (§IV.C)", got)
	}
	if got := p.HBM.TotalChannels(); got != 128 {
		t.Errorf("MI300A channels = %d, want 128 (§IV.D)", got)
	}
	if got := p.MemoryCapacity(); got != 128*GiB {
		t.Errorf("MI300A capacity = %d, want 128 GiB", got)
	}
	if got := p.InfinityCacheBytes(); got != 256*MiB {
		t.Errorf("MI300A Infinity Cache = %d, want 256 MiB", got)
	}
	if got := p.SocketX16Links(); got != 8 {
		t.Errorf("MI300A x16 links = %d, want 8 (§VIII)", got)
	}
	if got := p.PeakIOBW(); got != 1024e9 {
		t.Errorf("MI300A IO BW = %g, want 1024 GB/s (§VIII)", got)
	}
}

func TestMI300XCounts(t *testing.T) {
	p := MI300X()
	if got := p.TotalCUs(); got != 304 {
		t.Errorf("MI300X CUs = %d, want 304 (§VII)", got)
	}
	if p.TotalCores() != 0 {
		t.Error("MI300X should have no CPU cores")
	}
	if got := p.MemoryCapacity(); got != 192*GiB {
		t.Errorf("MI300X capacity = %d, want 192 GiB (§VII)", got)
	}
}

func TestTable1Rates(t *testing.T) {
	c2, c3 := CDNA2Rates(), CDNA3Rates()
	cases := []struct {
		table *RateTable
		class EngineClass
		d     DataType
		want  float64
	}{
		{c2, Vector, FP64, 128}, {c2, Vector, FP32, 128},
		{c2, Matrix, FP64, 256}, {c2, Matrix, FP32, 256},
		{c2, Matrix, TF32, 0}, {c2, Matrix, FP16, 1024},
		{c2, Matrix, BF16, 1024}, {c2, Matrix, FP8, 0}, {c2, Matrix, INT8, 1024},
		{c3, Vector, FP64, 128}, {c3, Vector, FP32, 256},
		{c3, Matrix, FP64, 256}, {c3, Matrix, FP32, 256},
		{c3, Matrix, TF32, 1024}, {c3, Matrix, FP16, 2048},
		{c3, Matrix, BF16, 2048}, {c3, Matrix, FP8, 4096}, {c3, Matrix, INT8, 4096},
	}
	for _, c := range cases {
		if got := c.table.Ops(c.class, c.d); got != c.want {
			t.Errorf("%s %s %s = %g, want %g (Table 1)",
				c.table.Name, c.class, c.d, got, c.want)
		}
	}
	// Sparsity peaks: "as high as 8192 ops/cycle/CU (for FP8 and INT8)".
	if got := c3.SparseOps(FP8); got != 8192 {
		t.Errorf("CDNA3 sparse FP8 = %g, want 8192", got)
	}
	if got := c3.SparseOps(INT8); got != 8192 {
		t.Errorf("CDNA3 sparse INT8 = %g, want 8192", got)
	}
	// CDNA2 has no sparsity: falls back to dense.
	if got := c2.SparseOps(FP16); got != 1024 {
		t.Errorf("CDNA2 sparse FP16 fallback = %g, want 1024", got)
	}
}

func TestPeakFlopsMatchPublishedNumbers(t *testing.T) {
	// Published peaks: MI300A FP64 vector 61.3 TF, FP64 matrix 122.6 TF,
	// FP16 matrix 980.6 TF; MI250X FP64 vector 47.9 TF, FP16 matrix 383 TF.
	approx := func(got, want float64) bool { return math.Abs(got-want)/want < 0.01 }
	a := MI300A()
	if got := a.PeakFlops(Vector, FP64); !approx(got, 61.3e12) {
		t.Errorf("MI300A vector FP64 = %g, want ~61.3 TF", got)
	}
	if got := a.PeakFlops(Matrix, FP64); !approx(got, 122.6e12) {
		t.Errorf("MI300A matrix FP64 = %g, want ~122.6 TF", got)
	}
	if got := a.PeakFlops(Matrix, FP16); !approx(got, 980.6e12) {
		t.Errorf("MI300A matrix FP16 = %g, want ~980.6 TF", got)
	}
	x := MI300X()
	if got := x.PeakFlops(Matrix, FP64); !approx(got, 163.4e12) {
		t.Errorf("MI300X matrix FP64 = %g, want ~163.4 TF", got)
	}
	m := MI250X()
	if got := m.PeakFlops(Vector, FP64); !approx(got, 47.9e12) {
		t.Errorf("MI250X vector FP64 = %g, want ~47.9 TF", got)
	}
	if got := m.PeakFlops(Matrix, FP16); !approx(got, 383e12) {
		t.Errorf("MI250X matrix FP16 = %g, want ~383 TF", got)
	}
}

func TestFig19Shapes(t *testing.T) {
	a, x, m := MI300A(), MI300X(), MI250X()
	// "peak memory bandwidth has also improved by 70%".
	bwUplift := a.PeakMemoryBW() / m.PeakMemoryBW()
	if bwUplift < 1.55 || bwUplift > 1.75 {
		t.Errorf("memory BW uplift = %.2f, want ~1.7 (Fig. 19)", bwUplift)
	}
	// "I/O (network) bandwidth has also doubled".
	ioUplift := a.PeakIOBW() / m.PeakIOBW()
	if ioUplift < 1.9 || ioUplift > 2.1 {
		t.Errorf("I/O uplift = %.2f, want ~2 (Fig. 19)", ioUplift)
	}
	// "total memory capacity is also 50% greater" (MI300X vs MI300A/MI250X).
	capUplift := float64(x.MemoryCapacity()) / float64(m.MemoryCapacity())
	if capUplift != 1.5 {
		t.Errorf("capacity uplift = %.2f, want 1.5 (Fig. 19)", capUplift)
	}
	// MI300X delivers more FLOPS than MI300A (more CUs).
	if x.PeakFlops(Matrix, FP16) <= a.PeakFlops(Matrix, FP16) {
		t.Error("MI300X should out-FLOP MI300A")
	}
}

func TestDataTypeBytes(t *testing.T) {
	want := map[DataType]int{FP64: 8, FP32: 4, TF32: 4, FP16: 2, BF16: 2, FP8: 1, INT8: 1}
	for d, w := range want {
		if got := d.Bytes(); got != w {
			t.Errorf("%s.Bytes() = %d, want %d", d, got, w)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	p := MI300A()
	p.XCD.EnabledCUs = 41
	if err := p.Validate(); err == nil {
		t.Error("enabled > physical CUs not caught")
	}
	p = MI300A()
	p.IODs = 3 // 3 IODs × 2 stacks ≠ 8 stacks
	if err := p.Validate(); err == nil {
		t.Error("IOD/HBM stack mismatch not caught")
	}
	p = MI250X()
	p.Host = nil
	if err := p.Validate(); err == nil {
		t.Error("discrete without host not caught")
	}
	p = &PlatformSpec{}
	if err := p.Validate(); err == nil {
		t.Error("unnamed platform not caught")
	}
}

func TestEHPv4Shortcomings(t *testing.T) {
	e, a := EHPv4(), MI300A()
	if !e.EHPLegacy {
		t.Error("EHPv4 must be marked legacy")
	}
	// §III.B: the cross-GPU path is a DDR-class SerDes bottleneck,
	// far below MI300A's USR mesh.
	if e.CrossDieBWPerDir >= a.IOD.USRVerticalBW {
		t.Errorf("EHPv4 cross-die BW %g should be well below MI300A USR %g",
			e.CrossDieBWPerDir, a.IOD.USRVerticalBW)
	}
	// Same CPU:GPU chiplet ratio as MI300A (§V.F: 4:2 vs 6:3 = 2:1).
	if e.XCDs*1 != e.CCDs*2 || a.XCDs*1 != a.CCDs*2 {
		t.Error("GPU:CPU chiplet ratio should be 2:1 on both EHPv4 and MI300A")
	}
	// Both use 8 HBM stacks (§V.F).
	if e.HBM.Stacks != 8 || a.HBM.Stacks != 8 {
		t.Error("EHP and MI300A both use 8 HBM stacks")
	}
}

// Property: for every platform and dtype, sparse >= dense matrix rate, and
// flops scale linearly with CU count.
func TestRateMonotonicityProperty(t *testing.T) {
	f := func(dt uint8) bool {
		d := DataType(int(dt) % int(numDataTypes))
		for _, p := range allPlatforms() {
			if p.PeakSparseFlops(d) < p.PeakFlops(Matrix, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkKindProperties(t *testing.T) {
	// USR must be the cheapest off-die transport (the point of §V.A).
	usr := LinkUSR.EnergyPerBit()
	for _, k := range []LinkKind{LinkSerDes, LinkIFOP, LinkPCIe} {
		if k.EnergyPerBit() <= usr {
			t.Errorf("%s energy %g should exceed USR %g", k, k.EnergyPerBit(), usr)
		}
	}
	if LinkUSR.String() != "USR" || LinkPCIe.String() != "PCIe" {
		t.Error("link kind names wrong")
	}
}
