package apusim

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/ras"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/spans"
)

// This file holds the causal-span experiments: three workloads traced end
// to end on the PR 4 span recorder, each printing the critical-path
// attribution table its spans produce. spanmem drives a memory-bound
// STREAM-like sweep (fabric/cache/HBM decomposition), spandispatch runs a
// compute-bound kernel sequence (enqueue/decode/execute/sync), and spanras
// repeats the memory sweep under an armed fault plan so the ECC-retry and
// reroute stages appear in the breakdown alongside the ras.fault events.

// checkAttribution enforces the acceptance criterion on a recorder's
// report: for every root kind, the per-stage critical-path totals must sum
// to the kind's end-to-end total within 1% — the backwards chain walk
// covers each root's whole window, so any gap is an analyzer bug.
func checkAttribution(att *spans.Attribution) error {
	if att == nil || len(att.Kinds) == 0 {
		return fmt.Errorf("spans: no attribution produced")
	}
	for _, k := range att.Kinds {
		var sum float64
		for _, s := range k.Stages {
			sum += s.TotalNS
		}
		if k.TotalNS <= 0 {
			return fmt.Errorf("spans: kind %s has no end-to-end time", k.Kind)
		}
		if diff := sum - k.TotalNS; diff > 0.01*k.TotalNS || diff < -0.01*k.TotalNS {
			return fmt.Errorf("spans: kind %s stage totals %.1f ns vs end-to-end %.1f ns (off by >1%%)",
				k.Kind, sum, k.TotalNS)
		}
	}
	return nil
}

// stageShare returns a stage's share of a kind's end-to-end time (0 when
// the kind or stage never appeared).
func stageShare(att *spans.Attribution, kind, stage string) float64 {
	for _, k := range att.Kinds {
		if k.Kind != kind {
			continue
		}
		for _, s := range k.Stages {
			if s.Stage == stage {
				return s.Share
			}
		}
	}
	return 0
}

// spanFooter renders the deterministic one-line dump summary experiments
// append under their attribution tables.
func spanFooter(rec *spans.Recorder) string {
	return "spans: " + rec.String() + "\n"
}

// ExperimentSpanMemory traces a memory-bound sweep: dependent streaming
// reads and writes issued from rotating XCDs and CCDs through the full
// memory path. The attribution table decomposes where each transaction's
// latency went — fabric serialization, Infinity Cache service, and HBM
// channel occupancy — and the HBM + cache stages must dominate, because
// that is what "memory-bound" means in this machine.
func ExperimentSpanMemory(ctx *runner.Ctx) (*spans.Attribution, string, error) {
	// The recorder comes first: Platform threads it in only once the run
	// has one.
	rec := ctx.Spans()
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, "", err
	}

	// A dependent access chain: each transaction starts when the previous
	// one completes, like a pointer-chasing stream through a strided buffer.
	const chunk = 64 << 10
	const accesses = 192
	at := sim.Time(0)
	addr := int64(0)
	for i := 0; i < accesses; i++ {
		write := i%4 == 3 // STREAM-like 3 reads : 1 write mix
		if i%3 == 2 {
			at = p.CPUMemTimeAt(at, i, addr, chunk, write)
		} else {
			at = p.GPUMemTimeAt(at, i, addr, chunk, write)
		}
		addr += 3 * chunk // stride past the previous lines to mix cache sets
	}

	att := rec.Attribution()
	if err := checkAttribution(att); err != nil {
		return nil, "", err
	}
	memBound := stageShare(att, spans.KindMem, spans.StageHBM) +
		stageShare(att, spans.KindMem, spans.StageCache)
	if memBound < 0.5 {
		return nil, "", fmt.Errorf("memory-bound sweep attributes only %.0f%% to cache+HBM", 100*memBound)
	}
	out := att.Table().String() + spanFooter(rec)
	return att, out, nil
}

// ExperimentSpanDispatch traces a compute-bound kernel sequence: four
// dispatches of a high-arithmetic-intensity kernel through the full AQL
// path (enqueue, doorbell, per-XCD decode, execution, completion sync).
// Execution must own the large majority of each dispatch's end-to-end
// time — the decode and sync stages are fixed overheads the paper's §VI.A
// flow amortizes over the kernel body.
func ExperimentSpanDispatch(ctx *runner.Ctx) (*spans.Attribution, string, error) {
	rec := ctx.Spans()
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, "", err
	}

	k := &KernelSpec{
		Name: "span_gemm_proxy", Class: Matrix, Dtype: FP16,
		FlopsPerItem: 4096, BytesReadPerItem: 8,
	}
	const items = 6 * 38 * 4 * 256
	at := sim.Time(0)
	for i := 0; i < 4; i++ {
		done, err := p.GPU.Dispatch(at, k, items, 256, 0)
		if err != nil {
			return nil, "", err
		}
		at = done + sim.Microsecond // back-to-back launches with a small gap
	}

	att := rec.Attribution()
	if err := checkAttribution(att); err != nil {
		return nil, "", err
	}
	if exec := stageShare(att, spans.KindDispatch, spans.StageExecute); exec < 0.5 {
		return nil, "", fmt.Errorf("compute-bound dispatch attributes only %.0f%% to execution", 100*exec)
	}
	out := att.Table().String() + spanFooter(rec)
	return att, out, nil
}

// ExperimentSpanFaults reruns the memory sweep on a machine degrading
// under an armed fault plan — an ECC storm and a channel retirement — and
// shows the span dump recording the damage: ras.fault events pin what was
// done to the machine and when, and the hbm.ecc stage surfaces the retry
// tax in the attribution table.
func ExperimentSpanFaults(ctx *runner.Ctx) (*spans.Attribution, string, error) {
	rec := ctx.Spans()
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return nil, "", err
	}
	plan := &ras.Plan{Seed: rasSeed, Faults: []ras.Fault{
		{Kind: ras.FaultECCStorm, AtNS: 1e3, Rate: 0.25, PenaltyNS: 400},
		{Kind: ras.FaultChannelRetire, AtNS: 2e3, Count: 16},
	}}
	inj, err := ArmFaultPlan(p, ctx.Engine(), plan)
	if err != nil {
		return nil, "", err
	}
	ctx.Engine().RunAll() // fire both faults before the sweep begins

	const chunk = 64 << 10
	const accesses = 128
	at := 10 * sim.Microsecond // well past the last fault timestamp
	addr := int64(0)
	for i := 0; i < accesses; i++ {
		at = p.GPUMemTimeAt(at, i, addr, chunk, i%4 == 3)
		addr += 3 * chunk
	}

	att := rec.Attribution()
	if err := checkAttribution(att); err != nil {
		return nil, "", err
	}
	if stageShare(att, spans.KindMem, spans.StageHBMECC) <= 0 {
		return nil, "", fmt.Errorf("ECC storm at rate 0.25 left no %s stage in the attribution", spans.StageHBMECC)
	}
	var faultEvents int
	for _, e := range rec.Events() {
		if e.Class == "ras.fault" {
			faultEvents++
		}
	}
	if faultEvents != len(plan.Faults) {
		return nil, "", fmt.Errorf("span dump records %d ras.fault events, want %d", faultEvents, len(plan.Faults))
	}

	var b strings.Builder
	b.WriteString(att.Table().String())
	for _, e := range rec.Events() {
		fmt.Fprintf(&b, "event @ %v: %s %s\n", e.At, e.Class, e.Detail)
	}
	b.WriteString(spanFooter(rec))
	if err := recordFaults(ctx, inj); err != nil {
		return nil, "", err
	}
	return att, b.String(), nil
}

// registerSpanExperiments registers the causal-span experiments.
func registerSpanExperiments(r *runner.Registry) {
	r.MustRegister(runner.Experiment{ID: "spanmem", Desc: "spans: memory-bound sweep — fabric/cache/HBM attribution",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, out, err := ExperimentSpanMemory(ctx)
			return out, err
		}})
	r.MustRegister(runner.Experiment{ID: "spandispatch", Desc: "spans: compute-bound dispatches — AQL path attribution",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, out, err := ExperimentSpanDispatch(ctx)
			return out, err
		}})
	r.MustRegister(runner.Experiment{ID: "spanras", Desc: "spans: memory sweep under ECC storm + channel retirement",
		Run: func(ctx *runner.Ctx) (string, error) {
			_, out, err := ExperimentSpanFaults(ctx)
			return out, err
		}})
}
