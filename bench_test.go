package apusim

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's per-experiment index). Each bench regenerates its artifact
// end-to-end, so `go test -bench=.` reproduces the entire evaluation and
// reports custom metrics (speedups, bandwidths, latencies) alongside
// wall-clock cost of the simulation itself.

import (
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkExperimentSuite runs every experiment in the shared registry
// as a sub-benchmark, so `go test -bench ExperimentSuite` regenerates
// the whole evaluation through the same registration table cmd/repro
// uses — no private experiment list to drift out of sync.
func BenchmarkExperimentSuite(b *testing.B) {
	for _, e := range Experiments().Experiments() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				suite, err := Experiments().RunSuite(runner.Options{
					Parallel: 1, IDs: []string{e.ID},
				})
				if err != nil {
					b.Fatal(err)
				}
				res := suite.Results[0]
				if res.Failed() {
					b.Fatalf("%s: %v", res.Status, res.Err)
				}
				out = res.Output
			}
			b.ReportMetric(float64(len(out)), "output-bytes")
		})
	}
}

// BenchmarkTable1_PeakRates regenerates Table 1 and additionally executes
// a one-CU microkernel per (arch, dtype) pair on the detailed GPU model
// to confirm the modeled rates are what the execution engine delivers.
func BenchmarkTable1_PeakRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ExperimentTable1().NumRows() != 2 {
			b.Fatal("table shape")
		}
	}
	b.ReportMetric(config.CDNA3Rates().Ops(config.Matrix, config.FP8), "cdna3-fp8-ops/clk/cu")
	b.ReportMetric(config.CDNA3Rates().SparseOps(config.FP8), "cdna3-fp8-sparse-ops/clk/cu")
}

// BenchmarkFig7_IODBandwidths measures every IOD interface's saturated
// bandwidth on the fabric model.
func BenchmarkFig7_IODBandwidths(b *testing.B) {
	var rows []IODBandwidth
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = ExperimentFig7(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		unit := strings.ReplaceAll(r.Interface, " ", "-") + "-GB/s"
		b.ReportMetric(r.MeasuredBW/1e9, unit)
	}
}

// BenchmarkFig12a_PowerShift regenerates the two power-distribution
// scenarios under the 550 W socket governor.
func BenchmarkFig12a_PowerShift(b *testing.B) {
	var scenarios []PowerScenario
	for i := 0; i < b.N; i++ {
		scenarios, _ = ExperimentFig12a()
	}
	b.ReportMetric(scenarios[0].Fractions["XCD"]*100, "compute-XCD-%")
	b.ReportMetric(scenarios[1].Fractions["HBM"]*100, "memory-HBM-%")
}

// BenchmarkFig12bc_Thermal runs the steady-state thermal solves for both
// workload scenarios on the full MI300A floorplan.
func BenchmarkFig12bc_Thermal(b *testing.B) {
	var ts [2]ThermalScenario
	for i := 0; i < b.N; i++ {
		var err error
		ts, err = ExperimentFig12bc(96, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ts[0].PeakC, "gpu-peak-C")
	b.ReportMetric(ts[1].PeakC, "mem-peak-C")
}

// BenchmarkFig13_MultiXCDDispatch runs the cooperative dispatch flow.
func BenchmarkFig13_MultiXCDDispatch(b *testing.B) {
	var r *Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = ExperimentFig13(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.SyncMessages), "sync-msgs")
	b.ReportMetric(r.Completion.Microseconds(), "kernel-µs")
}

// BenchmarkFig14_UnifiedMemory runs the three Fig. 14 programs and
// reports the APU's advantage over the discrete flow.
func BenchmarkFig14_UnifiedMemory(b *testing.B) {
	var r *Fig14Result
	for i := 0; i < b.N; i++ {
		var err error
		r, _, err = ExperimentFig14(nil, 1<<21)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Discrete.Total)/float64(r.APU.Total), "apu-vs-discrete-x")
	b.ReportMetric(r.APU.Total.Milliseconds(), "apu-ms")
	b.ReportMetric(r.Discrete.Total.Milliseconds(), "discrete-ms")
}

// BenchmarkFig15_FineGrainOverlap runs the flag-based overlap program.
func BenchmarkFig15_FineGrainOverlap(b *testing.B) {
	var r *OverlapResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = ExperimentFig15(nil, 1<<20, 64)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Speedup, "overlap-speedup-x")
}

// BenchmarkFig17_Partitioning validates every partitioning mode and
// measures per-partition bandwidth isolation.
func BenchmarkFig17_Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExperimentFig17(); err != nil {
			b.Fatal(err)
		}
	}
	cpx, err := ConfigurePartitions(SpecMI300X(), "CPX", 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cpx.BWPerPartition()/1e9, "cpx-nps4-GB/s-per-partition")
}

// BenchmarkFig18_NodeTopologies builds and measures both Fig. 18 nodes.
func BenchmarkFig18_NodeTopologies(b *testing.B) {
	var rs [2]Fig18Result
	for i := 0; i < b.N; i++ {
		var err error
		rs, _, err = ExperimentFig18(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rs[0].AllToAllBW/1e9, "quad-alltoall-GB/s")
	b.ReportMetric(rs[1].AllToAllBW/1e9, "octo-alltoall-GB/s")
}

// BenchmarkFig19_GenerationalUplift regenerates the uplift table and the
// measured-bandwidth column.
func BenchmarkFig19_GenerationalUplift(b *testing.B) {
	var rows []Fig19Row
	for i := 0; i < b.N; i++ {
		rows, _ = ExperimentFig19()
		if _, err := MeasuredBandwidths(nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Metric == "Memory BW TB/s" {
			b.ReportMetric(r.UpliftA, "membw-uplift-x")
		}
		if r.Metric == "I/O BW GB/s" {
			b.ReportMetric(r.UpliftA, "io-uplift-x")
		}
	}
}

// BenchmarkFig20_HPCSpeedups runs the four HPC workload proxies on both
// MI300A and MI250X.
func BenchmarkFig20_HPCSpeedups(b *testing.B) {
	var speedups map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		speedups, _, err = ExperimentFig20(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"GROMACS", "N-body", "HPCG", "OpenFOAM"} {
		b.ReportMetric(speedups[name], name+"-speedup-x")
	}
}

// BenchmarkFig21_LLMInference runs the Llama-2 70B serving comparison.
func BenchmarkFig21_LLMInference(b *testing.B) {
	var rows []Fig21Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = ExperimentFig21()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Config {
		case "Baseline vLLM FP16":
			b.ReportMetric(r.RelLatency, "vs-base-vllm-x")
		case "Baseline TRT-LLM FP16":
			b.ReportMetric(r.RelLatency, "vs-base-trt-x")
		case "Baseline TRT-LLM FP8":
			b.ReportMetric(r.RelLatency, "vs-base-fp8-x")
		case "MI300X vLLM FP16":
			b.ReportMetric(r.TotalSec*1000, "mi300x-total-ms")
		}
	}
}

// BenchmarkSec3_EHPv4Ablation quantifies the §III.B shortcomings.
func BenchmarkSec3_EHPv4Ablation(b *testing.B) {
	var r *EHPv4Ablation
	for i := 0; i < b.N; i++ {
		var err error
		r, _, err = ExperimentEHPv4(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CrossGPUBWMI300A/r.CrossGPUBWEHPv4, "crossgpu-bw-ratio-x")
	b.ReportMetric(float64(r.CPUHopsEHPv4[0]), "ehpv4-cpu-hbm-hops")
	b.ReportMetric(r.STREAMSlowdown, "stream-slowdown-x")
}

// BenchmarkFig9_TSVAlignment runs the full physical-construction
// validation (Figs. 8-10) including both package assemblies.
func BenchmarkFig9_TSVAlignment(b *testing.B) {
	var r *TSVAlignmentReport
	for i := 0; i < b.N; i++ {
		var err error
		r, err = ExperimentTSVAlignment()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.SignalTSVs), "signal-tsvs")
	b.ReportMetric(float64(r.RedundantTSVs), "redundant-tsvs")
}

// BenchmarkWorkloads_PerPlatform runs each Fig. 20 workload on each
// platform individually, for profile-style comparison.
func BenchmarkWorkloads_PerPlatform(b *testing.B) {
	specs := map[string]func() (*Platform, error){
		"MI300A": NewMI300A, "MI250X": NewMI250X, "EHPv4": NewEHPv4,
	}
	for name, mk := range specs {
		p, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workload.Fig20Suite() {
			w := w
			b.Run(name+"/"+w.Name(), func(b *testing.B) {
				var secs float64
				for i := 0; i < b.N; i++ {
					secs, _ = RunWorkload(w, p)
				}
				b.ReportMetric(secs*1000, "simulated-ms")
			})
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblation_SchedulingPolicy measures the §VI.A block vs
// round-robin workgroup placement tradeoff.
func BenchmarkAblation_SchedulingPolicy(b *testing.B) {
	var r *PolicyAblation
	for i := 0; i < b.N; i++ {
		var err error
		r, _, err = ExperimentPolicyAblation(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BlockHitRate, "block-l2-hitrate")
	b.ReportMetric(r.RRHitRate, "rr-l2-hitrate")
}

// BenchmarkAblation_InfinityCachePrefetch measures the §IV.D stream
// prefetcher's contribution.
func BenchmarkAblation_InfinityCachePrefetch(b *testing.B) {
	var r *PrefetchAblation
	for i := 0; i < b.N; i++ {
		var err error
		r, err = ExperimentPrefetchAblation(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.HitRateOn, "prefetch-on-hitrate")
	b.ReportMetric(r.HitRateOff, "prefetch-off-hitrate")
}

// BenchmarkAblation_PowerShifting measures dynamic vs static TDP budgets.
func BenchmarkAblation_PowerShifting(b *testing.B) {
	var r *PowerShiftAblation
	for i := 0; i < b.N; i++ {
		r, _ = ExperimentPowerShiftAblation()
	}
	b.ReportMetric(r.DynamicXCDWatts, "dynamic-xcd-W")
	b.ReportMetric(r.StaticXCDWatts, "static-xcd-W")
}

// BenchmarkAblation_BondInterface measures the Fig. 11 RDL-landing choice.
func BenchmarkAblation_BondInterface(b *testing.B) {
	var r *BondComparison
	for i := 0; i < b.N; i++ {
		var err error
		r, _, err = ExperimentBondInterface()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MI300MaxW, "mi300-maxW")
	b.ReportMetric(r.VCacheMaxW, "vcache-maxW")
}

// BenchmarkAblation_CoherenceScopes measures the §IV.D software-coherent
// cross-socket GPU scope design.
func BenchmarkAblation_CoherenceScopes(b *testing.B) {
	var r *CoherenceScopes
	for i := 0; i < b.N; i++ {
		var err error
		r, _, err = ExperimentCoherenceScopes()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.HW1GB)/float64(r.SW1GB), "sw-coherence-advantage-x")
	b.ReportMetric(float64(r.Crossover)/1e6, "crossover-MB")
}

// BenchmarkAblation_ShimDispatch measures the §VI.B shim crossover sizes.
func BenchmarkAblation_ShimDispatch(b *testing.B) {
	var rows []ShimCrossover
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = ExperimentShim(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Call == "dgemm" {
			b.ReportMetric(float64(r.Crossover), r.Platform+"-dgemm-n")
		}
	}
}

// BenchmarkAblation_ManagedMemory measures page migration vs true unified
// memory.
func BenchmarkAblation_ManagedMemory(b *testing.B) {
	var r *ManagedMemoryResult
	for i := 0; i < b.N; i++ {
		var err error
		r, _, err = ExperimentManagedMemory(nil, 1<<21)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Managed.Total)/float64(r.APU.Total), "managed-vs-apu-x")
	b.ReportMetric(float64(r.Stats.Faults), "page-fault-batches")
}

// BenchmarkCollectives_AllReduce measures ring vs direct all-reduce on the
// Fig. 18a node.
func BenchmarkCollectives_AllReduce(b *testing.B) {
	node, err := topology.QuadAPUNode()
	if err != nil {
		b.Fatal(err)
	}
	var ringBW, directBW float64
	for i := 0; i < b.N; i++ {
		cr, err := collective.NewComm(node)
		if err != nil {
			b.Fatal(err)
		}
		ring, err := cr.RingAllReduce(0, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		cd, err := collective.NewComm(node)
		if err != nil {
			b.Fatal(err)
		}
		direct, err := cd.DirectAllReduce(0, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		ringBW, directBW = ring.BusBW, direct.BusBW
	}
	b.ReportMetric(ringBW/1e9, "ring-busbw-GB/s")
	b.ReportMetric(directBW/1e9, "direct-busbw-GB/s")
}

// BenchmarkScale_StrongScaling runs the node-level strong-scaling study.
func BenchmarkScale_StrongScaling(b *testing.B) {
	var pts []ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, _, err = ExperimentStrongScale(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[3].Speedup, "4-socket-speedup-x")
	b.ReportMetric(pts[3].Efficiency*100, "4-socket-efficiency-%")
}

// BenchmarkAblation_TenantIsolation measures the NPS1/NPS4 QoS tradeoff.
func BenchmarkAblation_TenantIsolation(b *testing.B) {
	var rs [2]TenantIsolation
	for i := 0; i < b.N; i++ {
		var err error
		rs, _, err = ExperimentTenantIsolation(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rs[0].DegradationPct, "nps1-degradation-%")
	b.ReportMetric(rs[1].DegradationPct, "nps4-degradation-%")
}

// BenchmarkICacheStudy runs the §IV.B shared-vs-private I-cache study.
func BenchmarkICacheStudy(b *testing.B) {
	var c gpu.ICacheComparison
	for i := 0; i < b.N; i++ {
		c = gpu.CompareICache(48<<10, 8)
	}
	b.ReportMetric(c.SharedSame, "shared-hitrate")
	b.ReportMetric(c.PrivateSame, "private-hitrate")
}
