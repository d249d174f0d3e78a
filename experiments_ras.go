package apusim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/ras"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// This file holds the RAS experiments: what happens to the MI300 platform
// when pieces of it fail at runtime. Each experiment arms a deterministic
// internal/ras fault plan on its run's engine, measures the machine before
// and after the faults fire, and reports the degraded-mode behavior —
// rerouted fabric bandwidth, the HBM retirement cliff, dispatch
// redistribution after XCD loss, and the ECC latency tax.

// rasSeed drives every fault plan in this file; a fixed seed keeps the
// suite output byte-identical across runs and parallelism degrees.
const rasSeed = 0x5EED

// armPlan arms a plan and fails loudly on the structural errors that would
// otherwise surface as a silent no-fault run.
func armPlan(ctx *runner.Ctx, plan *ras.Plan, t ras.Targets) (*ras.Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := ras.NewInjector(plan)
	if _, err := inj.Arm(ctx.Engine(), t); err != nil {
		return nil, err
	}
	return inj, nil
}

// bareHBM builds spec's HBM on its own, outside any platform, with the
// run's auditor attached.
func bareHBM(ctx *runner.Ctx, spec *PlatformSpec) *mem.HBM {
	h := core.NewHBM(spec)
	audit.HBM(ctx.Auditor(), h, "hbm")
	return h
}

// streamBW reads total bytes from address 0 through h in 1-MiB chunks,
// all issued at start, and returns the bandwidth to the last completion.
func streamBW(h *mem.HBM, start sim.Time, total int64) float64 {
	var end sim.Time
	for off := int64(0); off < total; off += 1 << 20 {
		if done := h.Access(start, off, 1<<20, false); done > end {
			end = done
		}
	}
	return float64(total) / (end - start).Seconds()
}

// recordFaults copies the injector's fired-fault log into the run context
// and marks the run degraded, so the suite result and manifest distinguish
// "completed under faults" from both success and failure.
func recordFaults(ctx *runner.Ctx, inj *ras.Injector) error {
	for _, s := range inj.Summaries() {
		ctx.RecordFault(s)
	}
	if errs := inj.Errs(); len(errs) > 0 {
		return fmt.Errorf("fault application failed: %v", errs[0])
	}
	if len(inj.Summaries()) > 0 {
		ctx.MarkDegraded()
	}
	return nil
}

// LinkFaultPoint is one fabric health state in the link-loss experiment.
type LinkFaultPoint struct {
	State string
	Hops  int
	BW    float64 // achieved IOD-A -> IOD-B bandwidth
}

// ExperimentLinkDownSTREAM measures inter-IOD streaming bandwidth on the
// Fig. 9 USR mesh as links fail: healthy (direct A-B hop), after the A-B
// link goes down (rerouted A-C-D-B, bottlenecked by the vertical USR
// crossing), and after a surviving link additionally derates. Rerouted
// bandwidth must land strictly between zero and healthy — the machine
// degrades, it does not partition.
func ExperimentLinkDownSTREAM(ctx *runner.Ctx) ([]LinkFaultPoint, *metrics.Table, error) {
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, nil, err
	}
	a := p.Net.NodeByName("IOD-A").ID
	b := p.Net.NodeByName("IOD-B").ID
	const bytes = 256 << 20

	measure := func(start sim.Time) (LinkFaultPoint, error) {
		hops, err := p.Net.Hops(a, b)
		if err != nil {
			return LinkFaultPoint{}, err
		}
		done, err := p.Net.Transfer(start, a, b, bytes)
		if err != nil {
			return LinkFaultPoint{}, err
		}
		return LinkFaultPoint{Hops: hops, BW: float64(bytes) / (done - start).Seconds()}, nil
	}

	// Fault times are spaced far enough apart that each measurement's link
	// occupancy fully drains before the next stage begins.
	plan := &ras.Plan{Seed: rasSeed, Faults: []ras.Fault{
		{Kind: ras.FaultLinkDown, AtNS: 1e6, A: "IOD-A", B: "IOD-B"},
		{Kind: ras.FaultLinkDerate, AtNS: 10e6, A: "IOD-A", B: "IOD-C", Derate: 0.5},
	}}
	inj, err := armPlan(ctx, plan, ras.Targets{Net: p.Net})
	if err != nil {
		return nil, nil, err
	}
	eng := ctx.Engine()

	healthy, err := measure(0)
	if err != nil {
		return nil, nil, err
	}
	healthy.State = "healthy"

	eng.Run(2 * sim.Millisecond) // past link-down, before the derate
	rerouted, err := measure(2 * sim.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	rerouted.State = "A-B link down"

	eng.RunAll() // fire the derate
	derated, err := measure(11 * sim.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	derated.State = "+ A-C derated 0.5"

	// Acceptance: degraded, not dead, not free.
	if !(rerouted.BW > 0 && rerouted.BW < healthy.BW) {
		return nil, nil, fmt.Errorf("rerouted BW %.3g not strictly between 0 and healthy %.3g",
			rerouted.BW, healthy.BW)
	}
	if derated.BW >= rerouted.BW {
		return nil, nil, fmt.Errorf("derating the reroute did not slow it (%.3g >= %.3g)",
			derated.BW, rerouted.BW)
	}

	pts := []LinkFaultPoint{healthy, rerouted, derated}
	t := metrics.NewTable("RAS: IOD-A -> IOD-B streaming under USR link faults (Fig. 9 mesh)",
		"Fabric state", "Hops", "Achieved BW", "Vs healthy")
	for _, pt := range pts {
		t.AddRow(pt.State, fmt.Sprint(pt.Hops), metrics.FormatRate(pt.BW),
			fmt.Sprintf("%.0f%%", 100*pt.BW/healthy.BW))
	}
	if err := recordFaults(ctx, inj); err != nil {
		return nil, nil, err
	}
	return pts, t, nil
}

// RetireStage is one step of the channel-retirement cliff.
type RetireStage struct {
	Retired  int
	Live     int
	BW       float64
	AttainTF float64 // attainable GEMM TFLOPS at the stage's bandwidth
}

// gemmAI is the arithmetic intensity (flops/byte of HBM traffic) of a
// well-blocked FP16 GEMM — above MI300A's healthy ridge point, so the
// healthy machine runs it compute-bound and retirement exposes a cliff.
const gemmAI = 256.0

// ExperimentChannelRetireGEMM retires progressively more HBM channels on
// the injector timeline and measures the streaming bandwidth the surviving
// interleave sustains, then maps each stage onto the GEMM roofline: the
// healthy machine is compute-bound at gemmAI, and retirement drags it over
// the ridge into bandwidth-bound territory.
func ExperimentChannelRetireGEMM(ctx *runner.Ctx) ([]RetireStage, *metrics.Table, error) {
	spec := config.MI300A()
	h := bareHBM(ctx, spec)
	peakFlops := spec.PeakFlops(config.Matrix, config.FP16)

	plan := &ras.Plan{Seed: rasSeed, Faults: []ras.Fault{
		{Kind: ras.FaultChannelRetire, AtNS: 1e6, Count: 16},
		{Kind: ras.FaultChannelRetire, AtNS: 2e6, Count: 32},
		{Kind: ras.FaultChannelRetire, AtNS: 3e6, Count: 64},
	}}
	inj, err := armPlan(ctx, plan, ras.Targets{HBM: h})
	if err != nil {
		return nil, nil, err
	}
	// Sample the HBM through the retirement timeline: the live-channel
	// staircase and the stage bandwidths land in the run's telemetry
	// series (faults at a grid time fire before the tick, so the tick sees
	// the degraded machine). measured_bw holds the latest stage's streaming
	// bandwidth, so the sampled series steps down the cliff between fault
	// timestamps.
	rec := ctx.Telemetry()
	telemetry.InstrumentHBM(rec, h, "hbm")
	var measuredBW float64
	rec.Gauge("hbm.measured_bw", func(sim.Time) float64 { return measuredBW })
	ctx.ArmSampler(4 * sim.Millisecond)
	eng := ctx.Engine()

	measure := func(start sim.Time) RetireStage {
		bw := streamBW(h, start, 64<<20)
		measuredBW = bw
		s := RetireStage{Retired: h.RetiredChannels(), Live: h.LiveChannels(), BW: bw}
		s.AttainTF = peakFlops
		if bwBound := bw * gemmAI; bwBound < s.AttainTF {
			s.AttainTF = bwBound
		}
		return s
	}

	stages := []RetireStage{measure(0)}
	for i, at := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond} {
		eng.Run(at + sim.Microsecond)
		// Measurements start well clear of the previous stage's channel
		// occupancy (each stage drains in < 500 µs at the worst interleave).
		stages = append(stages, measure(at+sim.Time(i+1)*sim.Microsecond))
	}

	for i := 1; i < len(stages); i++ {
		if stages[i].BW >= stages[i-1].BW {
			return nil, nil, fmt.Errorf("retiring %d -> %d channels did not reduce bandwidth (%.3g >= %.3g)",
				stages[i-1].Retired, stages[i].Retired, stages[i].BW, stages[i-1].BW)
		}
	}

	t := metrics.NewTable(
		fmt.Sprintf("RAS: HBM channel retirement vs the FP16 GEMM roofline (AI %.0f flops/B)", gemmAI),
		"Retired", "Live", "Streamed BW", "Attainable GEMM", "Bound")
	for _, s := range stages {
		bound := "compute"
		if s.AttainTF < peakFlops {
			bound = "bandwidth"
		}
		t.AddRow(fmt.Sprint(s.Retired), fmt.Sprint(s.Live), metrics.FormatRate(s.BW),
			metrics.FormatFlops(s.AttainTF), bound)
	}
	if err := recordFaults(ctx, inj); err != nil {
		return nil, nil, err
	}
	return stages, t, nil
}

// XCDLossPoint is one machine state in the XCD-loss experiment.
type XCDLossPoint struct {
	State     string
	LiveXCDs  int
	CUs       int
	KernelDur sim.Time
	PerXCDWGs []uint64
	TokensSec float64 // analytic Llama2-70B decode throughput at this size
}

// ExperimentXCDLossInference loses compute at runtime — first a whole XCD,
// then a handful of CUs on a survivor — and shows both views the paper
// cares about: the dispatch view (the §VI.A per-ACE assignment lands the
// dead die's workgroups on the survivors) and the serving view (analytic
// Llama2-70B throughput on the shrunken machine; decode stays
// bandwidth-bound, so tokens/s degrades far less than peak flops).
func ExperimentXCDLossInference(ctx *runner.Ctx) ([]XCDLossPoint, *metrics.Table, error) {
	spec := config.MI300A()
	rng := sim.NewRNG(rasSeed)
	var xcds []*gpu.XCD
	for i := 0; i < spec.XCDs; i++ {
		xcds = append(xcds, gpu.NewXCD(i, spec.XCD, rng))
	}
	part := gpu.NewPartition("ras.gpu", xcds, nil, gpu.PolicyRoundRobin)
	audit.Partition(ctx.Auditor(), part)

	k := &gpu.KernelSpec{
		Name: "ras_decode_proxy", Class: config.Vector, Dtype: config.FP32,
		FlopsPerItem: 128,
	}
	const wgSize = 256
	const nWG = 1200

	baseWGs := func() []uint64 {
		out := make([]uint64, len(xcds))
		for i, x := range xcds {
			out[i] = x.Stats().Workgroups
		}
		return out
	}

	// Analytic serving throughput for a machine with n live XCDs: scale the
	// spec's compute while memory stays intact (XCD loss does not unsolder
	// HBM stacks).
	tokens := func(nXCDs int) (float64, error) {
		s := config.MI300A()
		s.XCDs = nXCDs
		cfg := workload.Fig21Configs()["mi300x-vllm"]
		r, err := workload.RunInference(s, workload.Llama2_70B(), cfg, workload.Fig21Request())
		if err != nil {
			return 0, err
		}
		return r.TokensPerSec, nil
	}

	dispatch := func(state string, at sim.Time, liveForTokens int) (XCDLossPoint, error) {
		before := baseWGs()
		done, err := part.Dispatch(at, k, nWG*wgSize, wgSize, 0)
		if err != nil {
			return XCDLossPoint{}, err
		}
		pt := XCDLossPoint{
			State: state, LiveXCDs: part.OnlineXCDs(), CUs: part.TotalCUs(),
			KernelDur: done - at, PerXCDWGs: make([]uint64, len(xcds)),
		}
		var sum uint64
		for i, x := range xcds {
			pt.PerXCDWGs[i] = x.Stats().Workgroups - before[i]
			sum += pt.PerXCDWGs[i]
		}
		if sum != nWG {
			return XCDLossPoint{}, fmt.Errorf("%s: %d workgroups executed, want %d", state, sum, nWG)
		}
		if pt.TokensSec, err = tokens(liveForTokens); err != nil {
			return XCDLossPoint{}, err
		}
		return pt, nil
	}

	plan := &ras.Plan{Seed: rasSeed, Faults: []ras.Fault{
		{Kind: ras.FaultXCDLoss, AtNS: 1e6, XCD: 5},
		{Kind: ras.FaultCULoss, AtNS: 2e6, XCD: 0, Count: 8},
	}}
	inj, err := armPlan(ctx, plan, ras.Targets{XCDs: xcds, GPU: part})
	if err != nil {
		return nil, nil, err
	}
	eng := ctx.Engine()

	healthy, err := dispatch("healthy", 0, spec.XCDs)
	if err != nil {
		return nil, nil, err
	}
	eng.Run(1500 * sim.Microsecond)
	lost, err := dispatch("XCD5 offline", 1500*sim.Microsecond, spec.XCDs-1)
	if err != nil {
		return nil, nil, err
	}
	eng.RunAll()
	harvested, err := dispatch("+ 8 CUs lost on XCD0", 3*sim.Millisecond, spec.XCDs-1)
	if err != nil {
		return nil, nil, err
	}

	if lost.PerXCDWGs[5] != 0 {
		return nil, nil, fmt.Errorf("offline XCD5 still executed %d workgroups", lost.PerXCDWGs[5])
	}
	if lost.KernelDur <= healthy.KernelDur {
		return nil, nil, fmt.Errorf("losing an XCD did not slow the kernel (%v <= %v)",
			lost.KernelDur, healthy.KernelDur)
	}

	pts := []XCDLossPoint{healthy, lost, harvested}
	t := metrics.NewTable("RAS: runtime XCD/CU loss — dispatch redistribution and serving throughput",
		"Machine state", "XCDs", "CUs", "Kernel time", "WGs/XCD", "Llama2-70B tok/s")
	for _, pt := range pts {
		t.AddRow(pt.State, fmt.Sprint(pt.LiveXCDs), fmt.Sprint(pt.CUs), pt.KernelDur.String(),
			fmt.Sprint(pt.PerXCDWGs), fmt.Sprintf("%.1f", pt.TokensSec))
	}
	if err := recordFaults(ctx, inj); err != nil {
		return nil, nil, err
	}
	return pts, t, nil
}

// ECCStage is one step of the ECC-storm sweep.
type ECCStage struct {
	Rate   float64
	BW     float64
	Events uint64
}

// ExperimentECCStorm escalates the correctable-error rate on the injector
// timeline and measures the latency tax: each errored chunk pays a retry
// penalty, so streaming bandwidth falls as the storm intensifies while the
// per-channel ECC counters account for every event.
func ExperimentECCStorm(ctx *runner.Ctx) ([]ECCStage, *metrics.Table, error) {
	spec := config.MI300A()
	h := bareHBM(ctx, spec)

	plan := &ras.Plan{Seed: rasSeed, Faults: []ras.Fault{
		{Kind: ras.FaultECCStorm, AtNS: 1e6, Rate: 0.01, PenaltyNS: 400},
		{Kind: ras.FaultECCStorm, AtNS: 2e6, Rate: 0.10, PenaltyNS: 400},
		{Kind: ras.FaultECCStorm, AtNS: 3e6, Rate: 0.50, PenaltyNS: 400},
	}}
	inj, err := armPlan(ctx, plan, ras.Targets{HBM: h})
	if err != nil {
		return nil, nil, err
	}
	// Sample the storm: hbm.ecc_retries ramps up window over window while
	// measured_bw (the latest stage's streaming bandwidth) decays between
	// fault timestamps.
	rec := ctx.Telemetry()
	telemetry.InstrumentHBM(rec, h, "hbm")
	var measuredBW float64
	rec.Gauge("hbm.measured_bw", func(sim.Time) float64 { return measuredBW })
	ctx.ArmSampler(4 * sim.Millisecond)
	eng := ctx.Engine()

	rates := []float64{0, 0.01, 0.10, 0.50}
	measure := func(start sim.Time, rate float64) ECCStage {
		before := h.ECCEvents()
		measuredBW = streamBW(h, start, 64<<20)
		return ECCStage{Rate: rate, BW: measuredBW,
			Events: h.ECCEvents() - before}
	}

	stages := []ECCStage{measure(0, rates[0])}
	for i, at := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond} {
		eng.Run(at + sim.Microsecond)
		stages = append(stages, measure(at+sim.Time(i+1)*sim.Microsecond, rates[i+1]))
	}

	if stages[0].Events != 0 {
		return nil, nil, fmt.Errorf("healthy stage recorded %d ECC events", stages[0].Events)
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].Events <= stages[i-1].Events {
			return nil, nil, fmt.Errorf("rate %.2f produced %d events, not more than %d at rate %.2f",
				stages[i].Rate, stages[i].Events, stages[i-1].Events, stages[i-1].Rate)
		}
		if stages[i].BW >= stages[i-1].BW {
			return nil, nil, fmt.Errorf("rate %.2f did not reduce bandwidth (%.3g >= %.3g)",
				stages[i].Rate, stages[i].BW, stages[i-1].BW)
		}
	}

	t := metrics.NewTable("RAS: ECC storm — correctable-error rate vs streaming bandwidth (400 ns retry)",
		"Error rate", "Streamed BW", "Vs clean", "ECC events")
	for _, s := range stages {
		t.AddRow(fmt.Sprintf("%.2f", s.Rate), metrics.FormatRate(s.BW),
			fmt.Sprintf("%.0f%%", 100*s.BW/stages[0].BW), fmt.Sprint(s.Events))
	}
	if err := recordFaults(ctx, inj); err != nil {
		return nil, nil, err
	}
	return stages, t, nil
}

// ExperimentFaultPlan builds a full MI300A platform, arms the given fault
// plan against all of its models at once, fires every fault, and then
// probes the machine end to end: inter-IOD transfers, HBM streaming, and a
// kernel dispatch. A machine that degrades-but-completes returns its health
// report and a degraded status; a machine that partitions or loses all
// compute returns the typed error (fabric.ErrPartitioned, gpu.ErrNoCompute)
// so cmd/repro exits nonzero.
func ExperimentFaultPlan(ctx *runner.Ctx, plan *ras.Plan) (string, error) {
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return "", err
	}
	inj, err := armPlan(ctx, plan, ras.Targets{Net: p.Net, HBM: p.HBM, XCDs: p.XCDs, GPU: p.GPU})
	if err != nil {
		return "", err
	}
	eng := ctx.Engine()
	eng.RunAll()
	probeAt := eng.Now() + sim.Millisecond

	t := metrics.NewTable(fmt.Sprintf("RAS fault plan: %d faults applied (seed %d)",
		len(inj.Applied()), plan.Seed), "Probe", "Result")
	for _, s := range inj.Summaries() {
		t.AddRow("fault", s)
	}

	// Fabric probe: every IOD pair must still be mutually reachable.
	names := []string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"}
	const probeBytes = 64 << 20
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			src := p.Net.NodeByName(names[i]).ID
			dst := p.Net.NodeByName(names[j]).ID
			done, err := p.Net.Transfer(probeAt, src, dst, probeBytes)
			if err != nil {
				return "", fmt.Errorf("fabric probe %s -> %s: %w", names[i], names[j], err)
			}
			t.AddRow(fmt.Sprintf("fabric %s->%s", names[i], names[j]),
				metrics.FormatRate(float64(probeBytes)/(done-probeAt).Seconds()))
		}
	}

	// Memory probe: stream through whatever channels survive.
	memAt := probeAt + 10*sim.Millisecond
	t.AddRow("hbm stream", fmt.Sprintf("%s (%d/%d channels live, %d ECC events)",
		metrics.FormatRate(streamBW(p.HBM, memAt, 64<<20)),
		p.HBM.LiveChannels(), len(p.HBM.Channels()), p.HBM.ECCEvents()))

	// Compute probe: a dispatch must land on the surviving CUs.
	k := &gpu.KernelSpec{Name: "ras_probe", Class: config.Vector, Dtype: config.FP32, FlopsPerItem: 16}
	done, err := p.GPU.Dispatch(memAt, k, 256*64, 64, 0)
	if err != nil {
		return "", fmt.Errorf("compute probe: %w", err)
	}
	t.AddRow("gpu dispatch", fmt.Sprintf("256 workgroups on %d XCDs (%d CUs) in %v",
		p.GPU.OnlineXCDs(), p.GPU.TotalCUs(), done-memAt))

	if err := recordFaults(ctx, inj); err != nil {
		return "", err
	}
	return t.String(), nil
}

// telemetryFooter renders a deterministic one-line note about the run's
// sampled series (probe and cadence only — sample counts are still
// growing until the runner's final drain, so they stay out of the output).
func telemetryFooter(ctx *runner.Ctx) string {
	return fmt.Sprintf("telemetry: %d probes @ %v cadence\n",
		ctx.Telemetry().Probes(), ctx.SampleEvery())
}

// registerRASExperiments registers the fault-injection experiments.
func registerRASExperiments(r *runner.Registry) {
	r.MustRegister(runner.Experiment{ID: "raslink", Desc: "RAS: USR link loss — reroute and derate bandwidth",
		Run: func(ctx *runner.Ctx) (string, error) { return tableOutput(ExperimentLinkDownSTREAM(ctx)) }})
	r.MustRegister(runner.Experiment{ID: "raschan", Desc: "RAS: HBM channel retirement — GEMM bandwidth cliff",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentChannelRetireGEMM(ctx)
			if err != nil {
				return "", err
			}
			return t.String() + telemetryFooter(ctx), nil
		}})
	r.MustRegister(runner.Experiment{ID: "rasxcd", Desc: "RAS: runtime XCD loss — dispatch redistribution, LLM throughput",
		Run: func(ctx *runner.Ctx) (string, error) { return tableOutput(ExperimentXCDLossInference(ctx)) }})
	r.MustRegister(runner.Experiment{ID: "rasecc", Desc: "RAS: ECC storm — correctable-error latency tax",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, t, err := ExperimentECCStorm(ctx)
			if err != nil {
				return "", err
			}
			return t.String() + telemetryFooter(ctx), nil
		}})
}
