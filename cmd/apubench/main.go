// Command apubench runs a single workload proxy on a chosen platform and
// prints the phase breakdown — the "run one point" companion to the full
// cmd/repro evaluation.
//
// Usage:
//
//	apubench -platform mi300a -workload stream -size 134217728
//	apubench -platform mi250x -workload openfoam -iters 20
//	apubench -platform mi300x -workload llm
//	apubench -workload gemm -dtype fp8 -sparse
//
// Registry experiments run through cmd/repro (repro -exp <id>).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	apusim "repro"
	"repro/internal/config"
	"repro/internal/workload"
)

func main() {
	platName := flag.String("platform", "mi300a", "mi300a | mi300x | mi250x | ehpv4 | baseline")
	wlName := flag.String("workload", "stream", "stream | gemm | nbody | hpcg | gromacs | openfoam | llm | roofline")
	size := flag.Int64("size", 0, "problem size (elements, rows, cells, bodies, or GEMM N)")
	iters := flag.Int("iters", 10, "iterations / steps")
	dtype := flag.String("dtype", "fp16", "GEMM data type: fp64 fp32 tf32 fp16 bf16 fp8 int8")
	sparse := flag.Bool("sparse", false, "GEMM: use 4:2 structured sparsity")
	flag.Parse()

	p, err := makePlatform(*platName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apubench:", err)
		os.Exit(2)
	}

	if *wlName == "llm" {
		runLLM(p)
		return
	}
	if *wlName == "roofline" {
		d, err := parseDtype(*dtype)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apubench:", err)
			os.Exit(2)
		}
		fmt.Printf("# %s roofline, matrix %s (ridge at %.1f flops/byte)\n",
			p.Spec.Name, d, apusim.RidgePoint(p, config.Matrix, d))
		if err := apusim.WriteRooflineCSV(os.Stdout, p, config.Matrix, d); err != nil {
			fmt.Fprintln(os.Stderr, "apubench:", err)
			os.Exit(1)
		}
		return
	}

	w, err := makeWorkload(*wlName, *size, *iters, *dtype, *sparse)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apubench:", err)
		os.Exit(2)
	}
	secs, results := apusim.RunWorkload(w, p)
	fmt.Printf("%s on %s: %.3f ms simulated\n", w.Name(), p.Spec.Name, secs*1000)
	for _, r := range results {
		fmt.Printf("  phase %-16s total=%-12v gpu=%-12v cpu=%-12v copy=%-12v bound=%s throttle=%.2f\n",
			r.Name, r.Total, r.GPUTime, r.CPUTime, r.CopyTime, r.Bound, r.Throttle)
	}
}

func makePlatform(name string) (*apusim.Platform, error) {
	switch strings.ToLower(name) {
	case "mi300a":
		return apusim.NewMI300A()
	case "mi300x":
		return apusim.NewMI300X()
	case "mi250x":
		return apusim.NewMI250X()
	case "ehpv4":
		return apusim.NewEHPv4()
	case "baseline":
		return apusim.NewBaselineGPU()
	default:
		return nil, fmt.Errorf("unknown platform %q", name)
	}
}

func makeWorkload(name string, size int64, iters int, dtype string, sparse bool) (apusim.Workload, error) {
	switch strings.ToLower(name) {
	case "stream":
		if size <= 0 {
			size = 1 << 27
		}
		return &workload.STREAM{Elements: size, Iterations: iters}, nil
	case "gemm":
		if size <= 0 {
			size = 8192
		}
		d, err := parseDtype(dtype)
		if err != nil {
			return nil, err
		}
		return &workload.GEMM{N: int(size), Dtype: d, Sparse: sparse}, nil
	case "nbody":
		if size <= 0 {
			size = 65536
		}
		return &workload.NBody{Bodies: int(size), Steps: iters}, nil
	case "hpcg":
		if size <= 0 {
			size = 104 * 104 * 104 * 8
		}
		return &workload.HPCG{Rows: size, Iterations: iters}, nil
	case "gromacs":
		if size <= 0 {
			size = 3_000_000
		}
		return &workload.GROMACS{Atoms: int(size), Steps: iters}, nil
	case "openfoam":
		if size <= 0 {
			size = 8_000_000
		}
		return &workload.OpenFOAM{Cells: size, Iterations: iters}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func parseDtype(s string) (config.DataType, error) {
	for _, d := range config.AllDataTypes() {
		if strings.EqualFold(d.String(), s) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown data type %q", s)
}

func runLLM(p *apusim.Platform) {
	m := workload.Llama2_70B()
	cfg := workload.Fig21Configs()["mi300x-vllm"]
	cfg.Label = "vLLM FP16 on " + p.Spec.Name
	r, err := workload.RunInference(p.Spec, m, cfg, workload.Fig21Request())
	if err != nil {
		fmt.Fprintln(os.Stderr, "apubench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s, BS=1, 2048 in / 128 out\n", r.Config, m.Name)
	fmt.Printf("  prompt  %v\n", r.PromptTime)
	fmt.Printf("  decode  %v (%.2f ms/token, %s-bound)\n", r.DecodeTime, r.PerTokenTime.Milliseconds(), r.DecodeBoundBy)
	fmt.Printf("  total   %v (%.2f tok/s), weights fit in HBM: %v\n", r.Total, r.TokensPerSec, r.WeightsFit)
}
