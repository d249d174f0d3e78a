package apusim

import (
	"strings"
	"testing"
)

func TestExperimentTable1Shape(t *testing.T) {
	tbl := ExperimentTable1()
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (CDNA 2, CDNA 3)", tbl.NumRows())
	}
	out := tbl.String()
	for _, want := range []string{"CDNA 2", "CDNA 3", "2048", "4096", "8192", "n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentFig7Ordering(t *testing.T) {
	rows, _, err := ExperimentFig7(nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.MeasuredBW <= 0 {
			t.Errorf("%s measured 0 bandwidth", r.Interface)
		}
		// Measured saturation should be within 25% of the model value.
		frac := r.MeasuredBW / r.ModelBW
		if frac < 0.75 || frac > 1.25 {
			t.Errorf("%s: measured %.2f of model", r.Interface, frac)
		}
		byName[r.Interface] = r.MeasuredBW
	}
	// The interface hierarchy of Fig. 7: 3D bond > USR > HBM stack > x16.
	if !(byName["XCD 3D bond"] > byName["USR horizontal (A-B)"] &&
		byName["USR horizontal (A-B)"] > byName["HBM stack"] &&
		byName["HBM stack"] > byName["x16 IFOP/PCIe"]) {
		t.Errorf("interface bandwidth ordering violated: %v", byName)
	}
}

func TestExperimentFig12aShift(t *testing.T) {
	scenarios, _ := ExperimentFig12a()
	c, m := scenarios[0], scenarios[1]
	if c.Fractions["XCD"] < 0.5 {
		t.Errorf("compute scenario XCD share = %.2f, want majority", c.Fractions["XCD"])
	}
	memSide := m.Fractions["HBM"] + m.Fractions["Fabric"] + m.Fractions["USR"]
	cMemSide := c.Fractions["HBM"] + c.Fractions["Fabric"] + c.Fractions["USR"]
	if memSide <= cMemSide {
		t.Error("memory scenario did not shift share to memory/fabric/USR")
	}
}

func TestExperimentFig12bcHotspots(t *testing.T) {
	ts, err := ExperimentFig12bc(64, 40)
	if err != nil {
		t.Fatal(err)
	}
	gpuSc, memSc := ts[0], ts[1]
	if !strings.Contains(gpuSc.HotspotComponent, "XCD") {
		t.Errorf("GPU-intensive hotspot on %q, want an XCD (Fig. 12b)", gpuSc.HotspotComponent)
	}
	if memSc.XCDMeanC >= gpuSc.XCDMeanC {
		t.Error("XCDs did not cool in memory-intensive scenario")
	}
	if memSc.USRMeanC <= gpuSc.USRMeanC {
		t.Error("USR PHYs did not heat in memory-intensive scenario (Fig. 12c)")
	}
}

func TestExperimentFig13Cooperation(t *testing.T) {
	r, err := ExperimentFig13(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.XCDs != 6 {
		t.Fatalf("XCDs = %d", r.XCDs)
	}
	// Every ACE reads the packet (Fig. 13 ①)...
	if r.PacketsDecoded != 6 {
		t.Errorf("packets decoded = %d, want 6 (one ACE per XCD)", r.PacketsDecoded)
	}
	// ...each launches an equal subset (② — divisible grid here)...
	var total uint64
	for _, n := range r.PerXCD {
		if n != r.PerXCD[0] {
			t.Errorf("uneven workgroup split: %v", r.PerXCD)
			break
		}
		total += n
	}
	if total != uint64(r.Workgroups) {
		t.Errorf("workgroups executed = %d, want %d", total, r.Workgroups)
	}
	// ...and non-nominated XCDs sync to the nominated one (③).
	if r.SyncMessages != 5 {
		t.Errorf("sync messages = %d, want 5", r.SyncMessages)
	}
}

func TestExperimentFig14APUAdvantage(t *testing.T) {
	r, _, err := ExperimentFig14(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []*ProgramResult{r.CPUOnly, r.Discrete, r.APU} {
		if !pr.Verified {
			t.Errorf("%s did not verify", pr.Program)
		}
	}
	if r.APU.Total >= r.Discrete.Total {
		t.Error("APU program not faster than discrete (Fig. 14)")
	}
	if r.APU.CopyBytes != 0 || r.Discrete.CopyBytes == 0 {
		t.Error("copy accounting wrong")
	}
	// The discrete program's copies are pure overhead relative to the APU
	// version of the same steps: kernel+init times are comparable, the
	// copies are the difference (Fig. 14b vs 14c).
	copies := r.Discrete.StepByName("hipMemcpy H2D").Duration() +
		r.Discrete.StepByName("hipMemcpy D2H").Duration()
	if copies <= 0 {
		t.Error("discrete program has no copy cost")
	}
}

func TestExperimentFig15Speedup(t *testing.T) {
	r, err := ExperimentFig15(nil, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified || r.Speedup <= 1 {
		t.Errorf("overlap: verified=%v speedup=%.2f", r.Verified, r.Speedup)
	}
}

func TestExperimentFig17AllModes(t *testing.T) {
	tbl, err := ExperimentFig17()
	if err != nil {
		t.Fatal(err)
	}
	// MI300A: 2 modes × 1 NPS; MI300X: 4 modes × 2 NPS = 10 rows.
	if tbl.NumRows() != 10 {
		t.Errorf("partition rows = %d, want 10:\n%s", tbl.NumRows(), tbl)
	}
}

func TestExperimentFig18Topologies(t *testing.T) {
	rs, _, err := ExperimentFig18(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !r.FullyConnected {
			t.Errorf("%s not fully connected", r.Name)
		}
		if r.AllToAllBW <= 0 {
			t.Errorf("%s all-to-all bandwidth missing", r.Name)
		}
	}
	if rs[0].PairBWPerDir != 2*rs[1].PairBWPerDir {
		t.Errorf("quad node pair BW (%g) should be 2x octo (%g): two links vs one",
			rs[0].PairBWPerDir, rs[1].PairBWPerDir)
	}
}

func TestExperimentFig19Uplifts(t *testing.T) {
	rows, _ := ExperimentFig19()
	byMetric := map[string]Fig19Row{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	bw := byMetric["Memory BW TB/s"]
	if bw.UpliftA < 1.55 || bw.UpliftA > 1.75 {
		t.Errorf("memory BW uplift = %.2f, want ~1.7 (\"improved by 70%%\")", bw.UpliftA)
	}
	io := byMetric["I/O BW GB/s"]
	if io.UpliftA < 1.9 || io.UpliftA > 2.1 {
		t.Errorf("I/O uplift = %.2f, want ~2 (\"doubled\")", io.UpliftA)
	}
	capRow := byMetric["Memory capacity GB"]
	if capRow.MI300X/capRow.MI250X != 1.5 {
		t.Errorf("MI300X capacity uplift = %.2f, want 1.5 (\"50%% greater\")", capRow.MI300X/capRow.MI250X)
	}
	// FP8 exists only on MI300.
	fp8 := byMetric["FP8 matrix TFLOPS"]
	if fp8.MI250X != 0 || fp8.MI300A <= 0 {
		t.Error("FP8 support pattern wrong")
	}
}

func TestExperimentFig20Shape(t *testing.T) {
	speedups, series, err := ExperimentFig20(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Values) != 4 {
		t.Fatalf("series has %d workloads", len(series.Values))
	}
	for name, s := range speedups {
		if s <= 1 {
			t.Errorf("%s speedup %.2f <= 1", name, s)
		}
	}
	if of := speedups["OpenFOAM"]; of < 2.2 || of > 3.3 {
		t.Errorf("OpenFOAM = %.2f, want ~2.75", of)
	}
}

func TestExperimentFig21Shape(t *testing.T) {
	rows, _, err := ExperimentFig21()
	if err != nil {
		t.Fatal(err)
	}
	rel := map[string]float64{}
	for _, r := range rows {
		rel[r.Config] = r.RelLatency
	}
	if rel["Baseline vLLM FP16"] < 2.0 {
		t.Errorf("baseline vLLM rel latency = %.2f, want > 2", rel["Baseline vLLM FP16"])
	}
	if v := rel["Baseline TRT-LLM FP16"]; v < 1.2 || v > 1.5 {
		t.Errorf("baseline TRT rel latency = %.2f, want ~1.3", v)
	}
	if v := rel["Baseline TRT-LLM FP8"]; v < 1.0 {
		t.Errorf("FP8 baseline rel latency = %.2f, want >= 1 (MI300X stays ahead)", v)
	}
	if rel["MI300X vLLM FP16"] != 1.0 {
		t.Errorf("MI300X rel latency = %.2f, want 1.0 (reference)", rel["MI300X vLLM FP16"])
	}
}

func TestExperimentEHPv4Shape(t *testing.T) {
	r, _, err := ExperimentEHPv4(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.CrossGPUBWMI300A <= r.CrossGPUBWEHPv4 {
		t.Error("MI300A cross-GPU BW should exceed EHPv4 (Fig. 4 ①)")
	}
	if r.CPUHopsEHPv4[0] < 2 {
		t.Errorf("EHPv4 min CPU->HBM hops = %d, want 2 (Fig. 4 ③)", r.CPUHopsEHPv4[0])
	}
	if r.CPUHopsMI300A[0] != 0 {
		t.Errorf("MI300A min CPU->HBM hops = %d, want 0", r.CPUHopsMI300A[0])
	}
	if r.STREAMSlowdown <= 1 || r.HPCGSlowdown <= 1 {
		t.Errorf("EHPv4 should be slower: STREAM %.2f HPCG %.2f", r.STREAMSlowdown, r.HPCGSlowdown)
	}
}

func TestExperimentTSVAlignment(t *testing.T) {
	r, err := ExperimentTSVAlignment()
	if err != nil {
		t.Fatal(err)
	}
	if r.RedundantTSVs == 0 {
		t.Error("no redundant TSVs (Fig. 9 red circles)")
	}
	if r.Permutations != 8 {
		t.Errorf("permutations = %d, want 8", r.Permutations)
	}
	if !r.MI300AValid || !r.MI300XValid {
		t.Error("package assembly invalid")
	}
}

func TestFacadeConstructors(t *testing.T) {
	for _, mk := range []func() (*Platform, error){
		NewMI300A, NewMI300X, NewMI250X, NewEHPv4, NewBaselineGPU,
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if p.Spec.Name == "" {
			t.Error("platform unnamed")
		}
	}
}
