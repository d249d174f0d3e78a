package main

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	apusim "repro"
	"repro/internal/config"
	"repro/internal/workload"
)

// TestMakePlatform builds every platform the -platform flag names, in
// any letter case, and rejects an unknown one.
func TestMakePlatform(t *testing.T) {
	for name, want := range map[string]string{
		"mi300a":   "MI300A",
		"MI300X":   "MI300X",
		"mi250x":   "MI250X",
		"EHPv4":    "EHPv4",
		"baseline": "BaselineGPU",
	} {
		p, err := makePlatform(name)
		if err != nil {
			t.Errorf("makePlatform(%q): %v", name, err)
			continue
		}
		if p.Spec.Name != want {
			t.Errorf("makePlatform(%q) built %s, want %s", name, p.Spec.Name, want)
		}
	}
	if _, err := makePlatform("mi100"); err == nil {
		t.Error("makePlatform(\"mi100\") succeeded, want an error")
	}
}

// TestMakeWorkloadDefaults constructs every workload the -workload flag
// names with -size 0 and checks the documented default size, and rejects
// an unknown name.
func TestMakeWorkloadDefaults(t *testing.T) {
	const iters = 10
	for name, want := range map[string]apusim.Workload{
		"stream":   &workload.STREAM{Elements: 1 << 27, Iterations: iters},
		"GEMM":     &workload.GEMM{N: 8192, Dtype: config.FP16},
		"nbody":    &workload.NBody{Bodies: 65536, Steps: iters},
		"hpcg":     &workload.HPCG{Rows: 104 * 104 * 104 * 8, Iterations: iters},
		"gromacs":  &workload.GROMACS{Atoms: 3_000_000, Steps: iters},
		"openfoam": &workload.OpenFOAM{Cells: 8_000_000, Iterations: iters},
	} {
		got, err := makeWorkload(name, 0, iters, "fp16", false)
		if err != nil {
			t.Errorf("makeWorkload(%q): %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("makeWorkload(%q) = %+v, want %+v", name, got, want)
		}
	}
	if _, err := makeWorkload("linpack", 0, iters, "fp16", false); err == nil {
		t.Error("makeWorkload(\"linpack\") succeeded, want an error")
	}
	if _, err := makeWorkload("gemm", 0, iters, "fp4", false); err == nil {
		t.Error("makeWorkload(\"gemm\") with dtype fp4 succeeded, want an error")
	}
}

// TestParseDtype parses every data type name in either letter case and
// rejects an unknown one.
func TestParseDtype(t *testing.T) {
	for _, d := range config.AllDataTypes() {
		for _, name := range []string{strings.ToLower(d.String()), strings.ToUpper(d.String())} {
			got, err := parseDtype(name)
			if err != nil || got != d {
				t.Errorf("parseDtype(%q) = %v, %v; want %v", name, got, err, d)
			}
		}
	}
	if _, err := parseDtype("fp4"); err == nil {
		t.Error("parseDtype(\"fp4\") succeeded, want an error")
	}
}

// TestLLMWorkload builds the command and runs -workload llm on the MI300X
// and the MI250X. The inference model is a roofline over the platform
// spec; its report is pinned byte for byte.
func TestLLMWorkload(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "apubench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building apubench: %v\n%s", err, out)
	}
	for platform, want := range map[string]string{
		"mi300x": `vLLM FP16 on MI300X: Llama-2-70B, BS=1, 2048 in / 128 out
  prompt  594.304ms
  decode  4.874s (38.08 ms/token, bandwidth-bound)
  total   5.469s (23.41 tok/s), weights fit in HBM: true
`,
		"mi250x": `vLLM FP16 on MI250X: Llama-2-70B, BS=1, 2048 in / 128 out
  prompt  2.029s
  decode  7.884s (61.59 ms/token, bandwidth-bound)
  total   9.913s (12.91 tok/s), weights fit in HBM: false
`,
	} {
		out, err := exec.Command(bin, "-platform", platform, "-workload", "llm").Output()
		if err != nil {
			t.Fatalf("apubench -platform %s -workload llm: %v", platform, err)
		}
		if string(out) != want {
			t.Errorf("apubench -platform %s -workload llm printed\n%s\nwant\n%s", platform, out, want)
		}
	}
}
