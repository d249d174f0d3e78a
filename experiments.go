package apusim

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/chiplet"
	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// This file is the experiment harness: one function per table/figure of
// the paper's evaluation, each returning structured results plus a
// rendered, paper-style table or series. cmd/repro prints them;
// bench_test.go regenerates them under `go test -bench`.
//
// An experiment that builds a platform takes its run's *runner.Ctx and
// builds every platform through ctx.Platform, which wires in the run's
// auditor and span recorder; bare components (networks, HBMs, caches,
// partitions) register on ctx.Auditor() through the audit helpers. A nil
// ctx builds plain, unaudited platforms, as tests and benchmarks do.

// ExperimentTable1 reproduces Table 1: peak operations-per-clock-per-CU
// for CDNA 2 (MI250X) versus CDNA 3 (MI300A), all data types.
func ExperimentTable1() *metrics.Table {
	t := metrics.NewTable("Table 1: peak ops/clock/CU",
		"Arch", "V.FP64", "V.FP32", "M.FP64", "M.FP32", "M.TF32", "M.FP16", "M.BF16", "M.FP8", "M.INT8", "Sparse.FP8")
	for _, rt := range []*config.RateTable{config.CDNA2Rates(), config.CDNA3Rates()} {
		na := func(v float64) string {
			if v == 0 {
				return "n/a"
			}
			return metrics.FormatFloat(v)
		}
		t.AddRow(rt.Name,
			na(rt.Ops(config.Vector, config.FP64)), na(rt.Ops(config.Vector, config.FP32)),
			na(rt.Ops(config.Matrix, config.FP64)), na(rt.Ops(config.Matrix, config.FP32)),
			na(rt.Ops(config.Matrix, config.TF32)), na(rt.Ops(config.Matrix, config.FP16)),
			na(rt.Ops(config.Matrix, config.BF16)), na(rt.Ops(config.Matrix, config.FP8)),
			na(rt.Ops(config.Matrix, config.INT8)),
			na(func() float64 {
				if rt.SparseMatrixOps[config.FP8] > 0 {
					return rt.SparseMatrixOps[config.FP8]
				}
				return 0
			}()))
	}
	return t
}

// IODBandwidth is one measured interface bandwidth for Fig. 7.
type IODBandwidth struct {
	Interface  string
	ModelBW    float64 // configured bytes/sec per direction
	MeasuredBW float64 // achieved by saturating transfers in the fabric
}

// ExperimentFig7 reproduces Fig. 7: bandwidths across the IOD's
// interfaces (3D-bonded chiplet, USR horizontal/vertical, HBM stack, x16),
// measured by saturating each interface with back-to-back transfers.
func ExperimentFig7(ctx *runner.Ctx) ([]IODBandwidth, *metrics.Table, error) {
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	spec := p.Spec
	measure := func(src, dst fabric.NodeID) float64 {
		p.Net.ResetStats()
		const chunk = 1 << 20
		const reps = 64
		var end sim.Time
		for i := 0; i < reps; i++ {
			done, err := p.Net.Transfer(0, src, dst, chunk)
			if err != nil {
				return 0
			}
			if done > end {
				end = done
			}
		}
		return float64(chunk*reps) / end.Seconds()
	}
	rows := []IODBandwidth{
		{"XCD 3D bond", 2.2e12, measure(p.XCDNode(0), p.IODNode(0))},
		{"USR horizontal (A-B)", spec.IOD.USRHorizontalBW, measure(p.IODNode(0), p.IODNode(1))},
		{"USR vertical (A-C)", spec.IOD.USRVerticalBW, measure(p.IODNode(0), p.IODNode(2))},
		{"HBM stack", spec.HBM.StackBW, measure(p.IODNode(0), p.HBMNode(0))},
		{"x16 IFOP/PCIe", spec.IOD.X16BWPerDir, measure(p.IODNode(0), p.Net.NodeByName("x16-0").ID)},
	}
	t := metrics.NewTable("Fig. 7: MI300A IOD interface bandwidths (per direction)",
		"Interface", "Model", "Measured")
	for _, r := range rows {
		t.AddRow(r.Interface, metrics.FormatRate(r.ModelBW), metrics.FormatRate(r.MeasuredBW))
	}
	return rows, t, nil
}

// PowerScenario is one Fig. 12(a) bar: the normalized power distribution
// for a workload scenario.
type PowerScenario struct {
	Name      string
	Alloc     power.Allocation
	Fractions map[string]float64
}

// ExperimentFig12a reproduces Fig. 12(a): representative power
// distributions for compute-intensive and memory-intensive scenarios
// under the MI300A socket governor.
func ExperimentFig12a() ([]PowerScenario, *metrics.Table) {
	m := power.MI300AModel()
	out := make([]PowerScenario, 0, 2)
	t := metrics.NewTable("Fig. 12a: normalized power distribution (MI300A, 550 W TDP)",
		"Scenario", "XCD", "CCD", "HBM", "Fabric", "USR", "IO", "Total W")
	for _, sc := range []struct {
		name string
		act  power.Activity
	}{
		{"compute-intensive", power.ComputeIntensive()},
		{"memory-intensive", power.MemoryIntensive()},
	} {
		alloc, _ := m.Allocate(sc.act)
		fr := map[string]float64{}
		row := []string{sc.name}
		for _, d := range power.AllDomains() {
			fr[d.String()] = alloc.Fraction(d)
			row = append(row, fmt.Sprintf("%.0f%%", alloc.Fraction(d)*100))
		}
		row = append(row, metrics.FormatFloat(alloc.Total()))
		t.AddRow(row...)
		out = append(out, PowerScenario{Name: sc.name, Alloc: alloc, Fractions: fr})
	}
	return out, t
}

// ThermalScenario is one Fig. 12(b/c) heat map.
type ThermalScenario struct {
	Name     string
	Field    *thermal.Field
	PeakC    float64
	HotspotX int
	HotspotY int
	// HotspotComponent is the floorplan component containing the peak.
	HotspotComponent string
	// XCDMeanC / USRMeanC summarize where the heat sits.
	XCDMeanC float64
	USRMeanC float64
}

// ExperimentFig12bc reproduces Fig. 12(b) and (c): thermal simulations of
// the GPU-intensive and memory-intensive power maps over the real
// MI300A floorplan geometry.
func ExperimentFig12bc(nx, ny int) ([2]ThermalScenario, error) {
	if nx <= 0 {
		nx, ny = 96, 60
	}
	pkg := chiplet.AssembleMI300A()
	if err := pkg.Validate(); err != nil {
		return [2]ThermalScenario{}, err
	}
	bounds := pkg.Bounds()
	comps := pkg.Floorplan()
	solver := thermal.NewSolver(nx, ny)
	m := power.MI300AModel()

	scenarios := []struct {
		name string
		act  power.Activity
	}{
		{"GPU-intensive (Fig. 12b)", power.ComputeIntensive()},
		{"memory-intensive (Fig. 12c)", power.MemoryIntensive()},
	}
	var out [2]ThermalScenario
	for i, sc := range scenarios {
		alloc, _ := m.Allocate(sc.act)
		watts := distributeWatts(alloc, comps)
		field := solver.Solve(solver.PowerMap(bounds, comps, watts))
		peak, hx, hy := field.Max()
		ts := ThermalScenario{
			Name: sc.name, Field: field, PeakC: peak, HotspotX: hx, HotspotY: hy,
		}
		var nXCD, nUSR int
		for _, c := range comps {
			x0, y0, x1, y1 := solver.RectOf(bounds, c.Rect)
			if hx >= x0 && hx < x1 && hy >= y0 && hy < y1 && ts.HotspotComponent == "" && c.Kind != chiplet.CompIOD {
				ts.HotspotComponent = c.Name
			}
			switch c.Kind {
			case chiplet.CompXCD:
				ts.XCDMeanC += field.MeanOver(x0, y0, x1, y1)
				nXCD++
			case chiplet.CompUSRPHY:
				ts.USRMeanC += field.MeanOver(x0, y0, x1, y1)
				nUSR++
			}
		}
		if nXCD > 0 {
			ts.XCDMeanC /= float64(nXCD)
		}
		if nUSR > 0 {
			ts.USRMeanC /= float64(nUSR)
		}
		out[i] = ts
	}
	return out, nil
}

// distributeWatts spreads a domain allocation over floorplan components.
func distributeWatts(alloc power.Allocation, comps []chiplet.Component) map[string]float64 {
	counts := map[chiplet.ComponentKind]int{}
	for _, c := range comps {
		counts[c.Kind]++
	}
	perKind := map[chiplet.ComponentKind]float64{}
	split := func(k chiplet.ComponentKind, watts float64) {
		if counts[k] > 0 {
			perKind[k] = watts / float64(counts[k])
		}
	}
	split(chiplet.CompXCD, alloc[power.DomainXCD])
	split(chiplet.CompCCD, alloc[power.DomainCCD])
	// HBM domain power: half in the stacks, half in the PHYs.
	split(chiplet.CompHBM, alloc[power.DomainHBM]*0.5)
	split(chiplet.CompHBMPHY, alloc[power.DomainHBM]*0.5)
	split(chiplet.CompIOD, alloc[power.DomainFabric]+alloc[power.DomainIO])
	split(chiplet.CompUSRPHY, alloc[power.DomainUSR])
	watts := map[string]float64{}
	for _, c := range comps {
		watts[c.Name] = perKind[c.Kind]
	}
	return watts
}

// Fig13Result summarizes a cooperative multi-XCD dispatch (Fig. 13).
type Fig13Result struct {
	XCDs           int
	Workgroups     int
	PerXCD         []uint64
	SyncMessages   uint64
	PacketsDecoded uint64
	Completion     sim.Time
}

// ExperimentFig13 reproduces the Fig. 13 dispatch flow: one AQL packet
// read by the ACE in every XCD of the partition, each launching its
// subset of workgroups, with completion synchronization to a nominated
// XCD.
func ExperimentFig13(ctx *runner.Ctx) (*Fig13Result, error) {
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, err
	}
	k := &KernelSpec{
		Name: "fig13", Class: Vector, Dtype: FP32,
		FlopsPerItem: 1000, BytesReadPerItem: 8,
	}
	const items = 6 * 38 * 2 * 256 // two waves of workgroups per CU
	done, err := p.GPU.Dispatch(0, k, items, 256, 0)
	if err != nil {
		return nil, err
	}
	r := &Fig13Result{XCDs: len(p.XCDs), Workgroups: items / 256, Completion: done}
	for _, x := range p.XCDs {
		st := x.Stats()
		r.PerXCD = append(r.PerXCD, st.Workgroups)
		r.SyncMessages += st.SyncMessages
		r.PacketsDecoded += st.PacketsDecoded
	}
	return r, nil
}

// Fig14Result bundles the three program variants of Fig. 14.
type Fig14Result struct {
	CPUOnly  *ProgramResult
	Discrete *ProgramResult
	APU      *ProgramResult
}

// ExperimentFig14 reproduces Fig. 14: the same computation as a CPU-only
// program, a discrete-GPU program with explicit copies (on MI250X), and a
// unified-memory APU program (on MI300A).
func ExperimentFig14(ctx *runner.Ctx, n int) (*Fig14Result, *metrics.Table, error) {
	if n <= 0 {
		n = 1 << 22
	}
	// Each program gets a fresh platform so no queueing state leaks
	// between runs.
	cpuPlat, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	disc, err := ctx.Platform(config.MI250X())
	if err != nil {
		return nil, nil, err
	}
	apu, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	cpuOnly, err := RunCPUOnly(cpuPlat, n)
	if err != nil {
		return nil, nil, err
	}
	discrete, err := RunDiscrete(disc, n)
	if err != nil {
		return nil, nil, err
	}
	apuRes, err := RunAPU(apu, n)
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable(fmt.Sprintf("Fig. 14: program timelines (n=%d float64)", n),
		"Program", "Platform", "Steps", "Copies", "Total", "Verified")
	for _, r := range []*ProgramResult{cpuOnly, discrete, apuRes} {
		var steps []string
		for _, s := range r.Steps {
			steps = append(steps, fmt.Sprintf("%s=%v", s.Name, s.Duration()))
		}
		t.AddRow(r.Program, r.Platform, strings.Join(steps, " "),
			metrics.FormatBytes(uint64(r.CopyBytes)), r.Total.String(), fmt.Sprint(r.Verified))
	}
	return &Fig14Result{CPUOnly: cpuOnly, Discrete: discrete, APU: apuRes}, t, nil
}

// ExperimentFig15 reproduces Fig. 15: fine-grained decoupling of GPU
// production and CPU consumption through coherent flags.
func ExperimentFig15(ctx *runner.Ctx, n, chunks int) (*OverlapResult, error) {
	if n <= 0 {
		n, chunks = 1<<20, 64
	}
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, err
	}
	return RunOverlap(p, n, chunks)
}

// ExperimentFig17 reproduces Fig. 17: every supported compute/memory
// partitioning mode for MI300A and MI300X with per-partition resources.
func ExperimentFig17() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 17: partitioning modes",
		"Platform", "Mode", "Partitions", "CUs/part", "NPS", "Mem/domain", "BW/part")
	for _, spec := range []*PlatformSpec{SpecMI300A(), SpecMI300X()} {
		for _, mode := range partitionModes(spec) {
			for _, nps := range partitionNPS(spec) {
				cfg, err := ConfigurePartitions(spec, mode, nps)
				if err != nil {
					return nil, err
				}
				t.AddRow(spec.Name, cfg.Mode.Name, fmt.Sprint(cfg.Mode.Partitions),
					fmt.Sprint(cfg.CUsPerPartition()), fmt.Sprintf("NPS%d", nps),
					metrics.FormatBytes(uint64(cfg.MemoryPerDomain)),
					metrics.FormatRate(cfg.BWPerPartition()))
			}
		}
	}
	return t, nil
}

// Fig18Result summarizes one node topology of Fig. 18.
type Fig18Result struct {
	Name           string
	Sockets        int
	FullyConnected bool
	PairBWPerDir   float64
	BisectionBW    float64
	AllToAllBW     float64 // achieved aggregate under concurrent all-to-all
}

// ExperimentFig18 reproduces Fig. 18: the 4×MI300A and 8×MI300X node
// architectures, validated and measured under all-to-all traffic.
func ExperimentFig18(ctx *runner.Ctx) ([2]Fig18Result, *metrics.Table, error) {
	var out [2]Fig18Result
	build := []func() (*Node, error){QuadAPUNode, OctoAcceleratorNode}
	t := metrics.NewTable("Fig. 18: node topologies",
		"Node", "Sockets", "Fully connected", "Pair BW/dir", "Bisection/dir", "All-to-all achieved")
	for i, f := range build {
		n, err := f()
		if err != nil {
			return out, nil, err
		}
		if err := n.Validate(); err != nil {
			return out, nil, err
		}
		r := Fig18Result{
			Name:           n.Name,
			Sockets:        len(n.Sockets),
			FullyConnected: n.IsFullyConnected(),
			PairBWPerDir:   n.PairBWPerDir(n.Sockets[0].Name, n.Sockets[1].Name),
			BisectionBW:    n.BisectionBWPerDir(),
		}
		net := n.BuildNetwork()
		audit.Fabric(ctx.Auditor(), net)
		const bytes = 32 << 20
		var end sim.Time
		var count int
		for _, a := range n.Sockets {
			for _, b := range n.Sockets {
				if a == b {
					continue
				}
				done, err := net.Transfer(0, net.NodeByName(a.Name).ID, net.NodeByName(b.Name).ID, bytes)
				if err != nil {
					return out, nil, err
				}
				if done > end {
					end = done
				}
				count++
			}
		}
		r.AllToAllBW = float64(count*bytes) / end.Seconds()
		out[i] = r
		t.AddRow(r.Name, fmt.Sprint(r.Sockets), fmt.Sprint(r.FullyConnected),
			metrics.FormatRate(r.PairBWPerDir), metrics.FormatRate(r.BisectionBW),
			metrics.FormatRate(r.AllToAllBW))
	}
	return out, t, nil
}

// Fig19Row is one metric row of the generational-uplift figure.
type Fig19Row struct {
	Metric  string
	MI250X  float64
	MI300A  float64
	MI300X  float64
	UpliftA float64 // MI300A / MI250X
}

// ExperimentFig19 reproduces Fig. 19: generational uplift of MI300A and
// MI300X over MI250X across peak rates, memory, and I/O.
func ExperimentFig19() ([]Fig19Row, *metrics.Table) {
	m, a, x := SpecMI250X(), SpecMI300A(), SpecMI300X()
	rows := []Fig19Row{
		{Metric: "FP64 vector TFLOPS", MI250X: tf(m.PeakFlops(Vector, FP64)), MI300A: tf(a.PeakFlops(Vector, FP64)), MI300X: tf(x.PeakFlops(Vector, FP64))},
		{Metric: "FP32 vector TFLOPS", MI250X: tf(m.PeakFlops(Vector, FP32)), MI300A: tf(a.PeakFlops(Vector, FP32)), MI300X: tf(x.PeakFlops(Vector, FP32))},
		{Metric: "FP64 matrix TFLOPS", MI250X: tf(m.PeakFlops(Matrix, FP64)), MI300A: tf(a.PeakFlops(Matrix, FP64)), MI300X: tf(x.PeakFlops(Matrix, FP64))},
		{Metric: "FP16 matrix TFLOPS", MI250X: tf(m.PeakFlops(Matrix, FP16)), MI300A: tf(a.PeakFlops(Matrix, FP16)), MI300X: tf(x.PeakFlops(Matrix, FP16))},
		{Metric: "FP8 matrix TFLOPS", MI250X: tf(m.PeakFlops(Matrix, FP8)), MI300A: tf(a.PeakFlops(Matrix, FP8)), MI300X: tf(x.PeakFlops(Matrix, FP8))},
		{Metric: "INT8 sparse TOPS", MI250X: tf(m.PeakSparseFlops(INT8)), MI300A: tf(a.PeakSparseFlops(INT8)), MI300X: tf(x.PeakSparseFlops(INT8))},
		{Metric: "Memory BW TB/s", MI250X: m.PeakMemoryBW() / 1e12, MI300A: a.PeakMemoryBW() / 1e12, MI300X: x.PeakMemoryBW() / 1e12},
		{Metric: "Memory capacity GB", MI250X: gb(m.MemoryCapacity()), MI300A: gb(a.MemoryCapacity()), MI300X: gb(x.MemoryCapacity())},
		{Metric: "I/O BW GB/s", MI250X: m.PeakIOBW() / 1e9, MI300A: a.PeakIOBW() / 1e9, MI300X: x.PeakIOBW() / 1e9},
	}
	t := metrics.NewTable("Fig. 19: generational uplift over MI250X",
		"Metric", "MI250X", "MI300A", "MI300X", "MI300A uplift")
	for i := range rows {
		if rows[i].MI250X > 0 {
			rows[i].UpliftA = rows[i].MI300A / rows[i].MI250X
		}
		t.AddRowf(rows[i].Metric, rows[i].MI250X, rows[i].MI300A, rows[i].MI300X,
			fmt.Sprintf("%.2fx", rows[i].UpliftA))
	}
	return rows, t
}

func tf(flops float64) float64 { return flops / 1e12 }
func gb(b int64) float64       { return float64(b) / (1 << 30) }

// ExperimentFig20 reproduces Fig. 20: measured speedups of the HPC
// workload proxies on MI300A over MI250X.
func ExperimentFig20(ctx *runner.Ctx) (map[string]float64, *metrics.Series, error) {
	a, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	m, err := ctx.Platform(config.MI250X())
	if err != nil {
		return nil, nil, err
	}
	speedups := map[string]float64{}
	s := &metrics.Series{Name: "Fig. 20: MI300A speedup over MI250X"}
	for _, w := range workload.Fig20Suite() {
		sp := workload.Speedup(w, a, m)
		speedups[w.Name()] = sp
		s.Add(w.Name(), sp)
	}
	return speedups, s, nil
}

// Fig21Row is one serving configuration's latency result.
type Fig21Row struct {
	Config     string
	TotalSec   float64
	PerTokenMs float64
	RelLatency float64 // normalized to MI300X (lower is better)
	WeightsFit bool
}

// ExperimentFig21 reproduces Fig. 21: Llama-2 70B inference latency
// (batch 1, 2048 input, 128 output tokens) for MI300X vLLM versus the
// baseline GPU under vLLM, TensorRT-LLM, and TensorRT-LLM FP8.
func ExperimentFig21(ctx *runner.Ctx) ([]Fig21Row, *metrics.Table, error) {
	mi300x, err := ctx.Platform(config.MI300X())
	if err != nil {
		return nil, nil, err
	}
	base, err := ctx.Platform(config.BaselineGPU())
	if err != nil {
		return nil, nil, err
	}
	results, err := workload.RunFig21(mi300x, base)
	if err != nil {
		return nil, nil, err
	}
	order := []string{"base-vllm", "base-trt", "base-trt-fp8", "mi300x-vllm"}
	mi := results["mi300x-vllm"]
	rows := make([]Fig21Row, 0, len(order))
	t := metrics.NewTable("Fig. 21: Llama-2 70B latency (BS=1, 2048 in / 128 out)",
		"Config", "Total (s)", "ms/token", "vs MI300X", "Weights fit")
	for _, key := range order {
		r := results[key]
		row := Fig21Row{
			Config:     r.Config,
			TotalSec:   r.Total.Seconds(),
			PerTokenMs: r.PerTokenTime.Milliseconds(),
			RelLatency: float64(r.Total) / float64(mi.Total),
			WeightsFit: r.WeightsFit,
		}
		rows = append(rows, row)
		t.AddRowf(row.Config, row.TotalSec, row.PerTokenMs,
			fmt.Sprintf("%.2fx", row.RelLatency), fmt.Sprint(row.WeightsFit))
	}
	return rows, t, nil
}

// EHPv4Ablation quantifies the §III.B shortcomings: cross-GPU bandwidth,
// CPU→HBM die hops, and workload slowdowns of EHPv4 versus MI300A.
type EHPv4Ablation struct {
	CrossGPUBWMI300A float64
	CrossGPUBWEHPv4  float64
	CPUHopsMI300A    [2]int // min, max
	CPUHopsEHPv4     [2]int
	STREAMSlowdown   float64 // EHPv4 time / MI300A time
	HPCGSlowdown     float64
}

// ExperimentEHPv4 runs the §III ablation.
func ExperimentEHPv4(ctx *runner.Ctx) (*EHPv4Ablation, *metrics.Table, error) {
	a, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	e, err := ctx.Platform(config.EHPv4())
	if err != nil {
		return nil, nil, err
	}
	r := &EHPv4Ablation{
		CrossGPUBWMI300A: a.CrossGPUBW(),
		CrossGPUBWEHPv4:  e.CrossGPUBW(),
	}
	r.CPUHopsMI300A[0], r.CPUHopsMI300A[1] = a.CPUToHBMHopsRange()
	r.CPUHopsEHPv4[0], r.CPUHopsEHPv4[1] = e.CPUToHBMHopsRange()
	stream := &workload.STREAM{Elements: 1 << 26, Iterations: 4}
	hpcg := &workload.HPCG{Rows: 1 << 22, Iterations: 10}
	r.STREAMSlowdown = workload.Speedup(stream, a, e)
	r.HPCGSlowdown = workload.Speedup(hpcg, a, e)

	t := metrics.NewTable("§III ablation: EHPv4 vs MI300A", "Metric", "EHPv4", "MI300A")
	t.AddRow("cross-GPU BW", metrics.FormatRate(r.CrossGPUBWEHPv4), metrics.FormatRate(r.CrossGPUBWMI300A))
	t.AddRow("CPU→HBM die hops (min-max)",
		fmt.Sprintf("%d-%d", r.CPUHopsEHPv4[0], r.CPUHopsEHPv4[1]),
		fmt.Sprintf("%d-%d", r.CPUHopsMI300A[0], r.CPUHopsMI300A[1]))
	t.AddRow("STREAM relative time", fmt.Sprintf("%.2fx", r.STREAMSlowdown), "1.00x")
	t.AddRow("HPCG relative time", fmt.Sprintf("%.2fx", r.HPCGSlowdown), "1.00x")
	return r, t, nil
}

// TSVAlignmentReport summarizes the Figs. 8-10 physical checks.
type TSVAlignmentReport struct {
	SignalTSVs    int
	RedundantTSVs int
	PGTSVs        int
	Permutations  int // orientation × compute-kind combinations checked
	MI300AValid   bool
	MI300XValid   bool
}

// ExperimentTSVAlignment runs the Figs. 8-10 physical-construction
// validation: chiplet/TSV alignment under every mirror/rotate
// permutation, P/G grid invariance, USR TX/RX pairing, and full-package
// assembly for both MI300A and MI300X.
func ExperimentTSVAlignment() (*TSVAlignmentReport, error) {
	d := chiplet.NewIODDesign()
	r := &TSVAlignmentReport{
		SignalTSVs:    d.SignalTSVs.Len(),
		RedundantTSVs: d.RedundantSites().Len(),
		PGTSVs:        d.PGGrid().Len(),
	}
	for _, o := range chiplet.AllOrientations() {
		for _, kind := range []chiplet.ComputeKind{chiplet.ComputeXCD, chiplet.ComputeCCD} {
			if err := d.CheckAlignment(o, kind); err != nil {
				return nil, err
			}
			r.Permutations++
		}
	}
	if err := d.CheckPGInvariance(); err != nil {
		return nil, err
	}
	a := chiplet.AssembleMI300A()
	r.MI300AValid = a.Validate() == nil
	x := chiplet.AssembleMI300X()
	r.MI300XValid = x.Validate() == nil
	return r, nil
}

// MeasuredBandwidths runs the platform bandwidth measurement used in the
// Fig. 19 "measured" column for every platform.
func MeasuredBandwidths(ctx *runner.Ctx) (*metrics.Table, error) {
	t := metrics.NewTable("Measured vs peak HBM bandwidth", "Platform", "Peak", "Measured", "Fraction")
	for _, spec := range []*PlatformSpec{config.MI250X(), config.MI300A(), config.MI300X()} {
		p, err := ctx.Platform(spec)
		if err != nil {
			return nil, err
		}
		meas := p.MeasureHBMBandwidth(1 << 30)
		t.AddRow(p.Spec.Name, metrics.FormatRate(p.Spec.PeakMemoryBW()),
			metrics.FormatRate(meas), fmt.Sprintf("%.2f", meas/p.Spec.PeakMemoryBW()))
	}
	return t, nil
}

func partitionModes(spec *PlatformSpec) []string {
	if spec.CCDs > 0 {
		return []string{"SPX", "TPX"}
	}
	return []string{"SPX", "DPX", "QPX", "CPX"}
}

func partitionNPS(spec *PlatformSpec) []int {
	if spec.CCDs > 0 {
		return []int{1}
	}
	return []int{1, 4}
}

// registerCoreExperiments registers this file's experiments — the
// paper's numbered tables and figures — in evaluation order.
func registerCoreExperiments(r *runner.Registry) {
	r.MustRegister(runner.Experiment{ID: "table1", Desc: "Peak ops/clock/CU, CDNA 2 vs CDNA 3",
		Run: func(*runner.Ctx) (string, error) {
			return ExperimentTable1().String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig7", Desc: "IOD interface bandwidths",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentFig7(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig12a", Desc: "Power distribution per workload scenario",
		Run: func(*runner.Ctx) (string, error) {
			_, t := ExperimentFig12a()
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig12bc", Desc: "Thermal maps, GPU- vs memory-intensive",
		Run: func(ctx *runner.Ctx) (string, error) {
			ts, err := ExperimentFig12bc(96, 60)
			if err != nil {
				return "", err
			}
			ctx.Milestone("thermal-solves")
			var b strings.Builder
			for _, t := range ts {
				fmt.Fprintf(&b, "%s: peak %.1f°C at %s (XCD mean %.1f°C, USR mean %.1f°C)\n",
					t.Name, t.PeakC, t.HotspotComponent, t.XCDMeanC, t.USRMeanC)
			}
			b.WriteString("(render the maps with cmd/thermalmap)\n")
			return b.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig13", Desc: "Cooperative multi-XCD dispatch flow",
		Run: func(ctx *runner.Ctx) (string, error) {
			res, err := ExperimentFig13(ctx)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("1 AQL packet: %d ACE decodes, per-XCD workgroups %v, %d sync messages, completed at %v\n",
				res.PacketsDecoded, res.PerXCD, res.SyncMessages, res.Completion), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig14", Desc: "CPU-only vs discrete vs APU programs",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentFig14(ctx, 1<<22)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig15", Desc: "Fine-grained GPU/CPU overlap",
		Run: func(ctx *runner.Ctx) (string, error) {
			res, err := ExperimentFig15(ctx, 1<<20, 64)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("coarse %v, fine-grained %v, speedup %.2fx (verified=%v)\n",
				res.CoarseTotal, res.FineTotal, res.Speedup, res.Verified), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig17", Desc: "Partitioning modes",
		Run: func(*runner.Ctx) (string, error) {
			t, err := ExperimentFig17()
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig18", Desc: "Node topologies",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentFig18(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig19", Desc: "Generational uplift",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t := ExperimentFig19()
			ctx.Milestone("uplift-table")
			bw, err := MeasuredBandwidths(ctx)
			if err != nil {
				return "", err
			}
			return t.String() + bw.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig20", Desc: "HPC workload speedups MI300A vs MI250X",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, s, err := ExperimentFig20(ctx)
			if err != nil {
				return "", err
			}
			return s.BarChart(40), nil
		}})
	r.MustRegister(runner.Experiment{ID: "fig21", Desc: "Llama-2 70B inference latency",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentFig21(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "ehpv4", Desc: "§III EHPv4 shortcoming ablation",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentEHPv4(ctx)
			if err != nil {
				return "", err
			}
			return t.String(), nil
		}})
	r.MustRegister(runner.Experiment{ID: "tsv", Desc: "Figs. 8-10 TSV/mirroring validation",
		Run: func(*runner.Ctx) (string, error) {
			res, err := ExperimentTSVAlignment()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("signal TSVs %d (%d redundant), P/G TSVs %d, %d permutations aligned, MI300A=%v MI300X=%v\n",
				res.SignalTSVs, res.RedundantTSVs, res.PGTSVs, res.Permutations, res.MI300AValid, res.MI300XValid), nil
		}})
}
