package workload

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

func plat(t testing.TB, spec *config.PlatformSpec) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSTREAMIsMemoryBound(t *testing.T) {
	p := plat(t, config.MI300A())
	s := &STREAM{Elements: 1 << 27, Iterations: 2}
	_, results := Run(s, p)
	if results[0].Bound != "memory" {
		t.Errorf("STREAM bound = %s, want memory", results[0].Bound)
	}
}

func TestSTREAMBandwidthRatio(t *testing.T) {
	// STREAM time ratio across platforms tracks the HBM bandwidth ratio.
	a := plat(t, config.MI300A())
	m := plat(t, config.MI250X())
	s := &STREAM{Elements: 1 << 27, Iterations: 4}
	ratio := Speedup(s, a, m)
	if ratio < 1.4 || ratio > 2.1 {
		t.Errorf("STREAM MI300A/MI250X = %.2f, want ~1.6-1.7 (BW ratio)", ratio)
	}
}

func TestGEMMIsComputeBound(t *testing.T) {
	p := plat(t, config.MI300A())
	g := &GEMM{N: 8192, Dtype: config.FP16}
	_, results := Run(g, p)
	if results[0].Bound != "compute" {
		t.Errorf("GEMM bound = %s, want compute", results[0].Bound)
	}
}

func TestGEMMSparsitySpeedsUp(t *testing.T) {
	p := plat(t, config.MI300A())
	dense, _ := Run(&GEMM{N: 8192, Dtype: config.FP8}, p)
	sparse, _ := Run(&GEMM{N: 8192, Dtype: config.FP8, Sparse: true}, p)
	ratio := dense / sparse
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("4:2 sparsity GEMM speedup = %.2f, want ~2", ratio)
	}
}

func TestFig20SpeedupShapes(t *testing.T) {
	// The Fig. 20 acceptance criteria: every workload speeds up on
	// MI300A vs MI250X; compute-led and BW-led causes; OpenFOAM is the
	// standout at roughly 2.75x thanks to eliminated data movement.
	a := plat(t, config.MI300A())
	m := plat(t, config.MI250X())
	speedups := map[string]float64{}
	for _, w := range Fig20Suite() {
		speedups[w.Name()] = Speedup(w, a, m)
	}
	for name, s := range speedups {
		if s <= 1.0 {
			t.Errorf("%s speedup = %.2f, want > 1 (Fig. 20)", name, s)
		}
	}
	// HPCG is bandwidth-led: close to the 1.66x BW ratio.
	if s := speedups["HPCG"]; s < 1.3 || s > 2.0 {
		t.Errorf("HPCG speedup = %.2f, want ~1.6 (HBM3 vs HBM2e)", s)
	}
	// OpenFOAM is the largest uplift, near the paper's 2.75x.
	of := speedups["OpenFOAM"]
	if of < 2.2 || of > 3.3 {
		t.Errorf("OpenFOAM speedup = %.2f, want ~2.75 (Fig. 20)", of)
	}
	for name, s := range speedups {
		if name != "OpenFOAM" && s >= of {
			t.Errorf("%s (%.2f) >= OpenFOAM (%.2f); OpenFOAM should lead", name, s, of)
		}
	}
}

func TestOpenFOAMCopyEliminationIsTheDifference(t *testing.T) {
	// Run OpenFOAM on MI250X and check copies are a large share; on
	// MI300A the same phases charge zero copy time.
	a := plat(t, config.MI300A())
	m := plat(t, config.MI250X())
	w := &OpenFOAM{Cells: 8_000_000, Iterations: 10}
	_, ra := Run(w, a)
	_, rm := Run(w, m)
	if ra[0].CopyTime != 0 {
		t.Error("OpenFOAM on APU charged copy time")
	}
	if rm[0].CopyTime <= 0 {
		t.Fatal("OpenFOAM on MI250X charged no copy time")
	}
	if frac := float64(rm[0].CopyTime) / float64(rm[0].Total); frac < 0.3 {
		t.Errorf("copy share on MI250X = %.2f, want dominant (>0.3)", frac)
	}
}

func TestEHPv4SlowerThanMI300A(t *testing.T) {
	// §III ablation: the same HPC workloads on the EHPv4 concept are
	// slower than MI300A (less compute, HBM2e, bottlenecked fabric).
	a := plat(t, config.MI300A())
	e := plat(t, config.EHPv4())
	for _, w := range []Workload{&STREAM{Elements: 1 << 26, Iterations: 2}, &HPCG{Rows: 1 << 22, Iterations: 5}} {
		if s := Speedup(w, a, e); s <= 1.0 {
			t.Errorf("%s: MI300A vs EHPv4 speedup = %.2f, want > 1", w.Name(), s)
		}
	}
}

func TestLlama70BModel(t *testing.T) {
	m := Llama2_70B()
	if m.WeightBytes(config.FP16) != 140e9 {
		t.Errorf("FP16 weights = %g, want 140 GB", m.WeightBytes(config.FP16))
	}
	if m.WeightBytes(config.FP8) != 70e9 {
		t.Errorf("FP8 weights = %g, want 70 GB", m.WeightBytes(config.FP8))
	}
	kv := m.KVBytesPerToken(2048)
	// 2 × 80 layers × 8 heads × 128 dim × 2048 ctx × 2 B ≈ 0.67 GB.
	if kv < 0.6e9 || kv > 0.8e9 {
		t.Errorf("KV traffic = %g, want ~0.67 GB/token", kv)
	}
}

func TestFig21Shapes(t *testing.T) {
	results, err := RunFig21(plat(t, config.MI300X()), plat(t, config.BaselineGPU()))
	if err != nil {
		t.Fatal(err)
	}
	mi := results["mi300x-vllm"]
	bv := results["base-vllm"]
	bt := results["base-trt"]
	f8 := results["base-trt-fp8"]

	// "MI300X was measured to provide more than 2x improvement in
	// inference latency" vs baseline vLLM.
	if r := float64(bv.Total) / float64(mi.Total); r < 2.0 || r > 2.6 {
		t.Errorf("MI300X vs baseline-vLLM = %.2fx, want > 2 (Fig. 21)", r)
	}
	// "Even in this scenario, MI300X still delivers a 30% improvement"
	// vs TensorRT-LLM.
	if r := float64(bt.Total) / float64(mi.Total); r < 1.2 || r > 1.5 {
		t.Errorf("MI300X vs baseline-TRT = %.2fx, want ~1.3 (Fig. 21)", r)
	}
	// "MI300X continues to demonstrate a performance advantage" even
	// against the FP8 baseline.
	if f8.Total < mi.Total {
		t.Errorf("FP8 baseline (%v) beat MI300X (%v); paper says MI300X stays ahead", f8.Total, mi.Total)
	}
	// Decode at batch 1 is bandwidth-bound everywhere.
	for k, r := range results {
		if r.DecodeBoundBy != "bandwidth" {
			t.Errorf("%s decode bound by %s, want bandwidth", k, r.DecodeBoundBy)
		}
	}
	// MI300X (192 GB) fits FP16 weights; the 80 GB baseline does not.
	if !mi.WeightsFit {
		t.Error("MI300X should fit 140 GB of FP16 weights (192 GB HBM)")
	}
	if bv.WeightsFit {
		t.Error("baseline (80 GB) should not fit FP16 weights — the §VII capacity argument")
	}
	if !f8.WeightsFit {
		t.Error("baseline should fit FP8 weights (70 GB)")
	}
}

func TestRunInferenceFallbackForUnsupportedFP8(t *testing.T) {
	// FP8 serving on CDNA 2 (MI250X) falls back to FP16 peaks rather
	// than failing.
	p := plat(t, config.MI250X())
	r, err := RunInference(p, Llama2_70B(), ServingConfig{
		Label: "fp8-on-cdna2", Weights: config.FP8, FrameworkEff: 0.8, FP8TrafficFactor: 0.8,
	}, Fig21Request())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total <= 0 {
		t.Error("fallback produced no time")
	}
}

func TestRunInferenceValidation(t *testing.T) {
	p := plat(t, config.MI300X())
	if _, err := RunInference(p, Llama2_70B(), Fig21Configs()["mi300x-vllm"], InferenceRequest{}); err == nil {
		t.Error("degenerate request accepted")
	}
}

func TestWorkloadNamesStable(t *testing.T) {
	// The experiment harness keys on these names.
	want := []string{"GROMACS", "N-body", "HPCG", "OpenFOAM"}
	suite := Fig20Suite()
	for i, w := range suite {
		if w.Name() != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, w.Name(), want[i])
		}
	}
}
