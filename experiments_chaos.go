package apusim

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/ras"
	"repro/internal/runner"
	"repro/internal/sim"
)

// This file holds the chaos harness: seed-driven random fault storms
// thrown at a full MI300A platform. Where the curated RAS experiments
// each demonstrate one failure mode with hand-placed faults, a chaos
// storm draws 1..6 faults of random kinds at random times and asserts
// only the robustness contract: the run completes (healthy or degraded)
// or fails with a typed error — it never panics, never hangs under the
// watchdog, and never violates a conservation ledger. The storm is a
// pure function of its seed, so every outcome reproduces exactly.

// ExperimentChaosStorm builds a full MI300A platform, arms the random
// storm drawn from seed, fires every fault, and probes the survivor end
// to end: fabric reachability for every IOD pair, an HBM stream through
// the surviving interleave, and a kernel dispatch. Outcomes the platform
// is specified to reach under faults — ErrPartitioned fabric pairs, an
// ErrNoCompute partition, injector refusals (e.g. declining to retire
// the last live channel) — are recorded as degraded results, not
// failures; anything else is a real error.
func ExperimentChaosStorm(ctx *runner.Ctx, seed uint64) (string, error) {
	p, err := ctx.Platform(config.MI300A())
	if err != nil {
		return "", err
	}

	plan := ras.RandomPlan(seed, ras.MI300AStorm())
	inj := ras.NewInjector(plan)
	targets := ras.Targets{Net: p.Net, HBM: p.HBM, XCDs: p.XCDs, GPU: p.GPU}
	if _, err := inj.Arm(ctx.Engine(), targets); err != nil {
		return "", err
	}
	eng := ctx.Engine()
	eng.RunAll()
	probeAt := eng.Now() + sim.Millisecond

	t := metrics.NewTable(fmt.Sprintf("chaos storm seed %d: %d faults drawn, %d applied",
		seed, len(plan.Faults), len(inj.Applied())), "Probe", "Result")
	for _, s := range inj.Summaries() {
		t.AddRow("fault", s)
	}
	degraded := len(inj.Summaries()) > 0
	for _, aerr := range inj.Errs() {
		// Refused applications (retiring the last channel, unknown nodes
		// in a shrunken config) are part of the chaos contract: record
		// them, stay degraded, keep probing.
		t.AddRow("fault refused", aerr.Error())
		ctx.RecordFault("refused: " + aerr.Error())
		degraded = true
	}

	// Fabric probe: reachable pairs report bandwidth; partitioned pairs
	// are a legal degraded outcome under random link storms.
	names := []string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"}
	const probeBytes = 16 << 20
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			src := p.Net.NodeByName(names[i]).ID
			dst := p.Net.NodeByName(names[j]).ID
			done, err := p.Net.Transfer(probeAt, src, dst, probeBytes)
			switch {
			case errors.Is(err, fabric.ErrPartitioned):
				t.AddRow(fmt.Sprintf("fabric %s->%s", names[i], names[j]), "partitioned")
				degraded = true
			case err != nil:
				return "", fmt.Errorf("fabric probe %s -> %s: %w", names[i], names[j], err)
			default:
				t.AddRow(fmt.Sprintf("fabric %s->%s", names[i], names[j]),
					metrics.FormatRate(float64(probeBytes)/(done-probeAt).Seconds()))
			}
		}
	}

	// Memory probe: stream through whatever channels survive (the
	// injector never retires the last one).
	memAt := probeAt + 10*sim.Millisecond
	t.AddRow("hbm stream", fmt.Sprintf("%s (%d/%d channels live, %d ECC events)",
		metrics.FormatRate(streamBW(p.HBM, memAt, 16<<20)),
		p.HBM.LiveChannels(), len(p.HBM.Channels()), p.HBM.ECCEvents()))

	// Compute probe: a partition whose every XCD went offline refuses
	// dispatch with ErrNoCompute — legal under an xcd-loss storm.
	k := &gpu.KernelSpec{Name: "chaos_probe", Class: config.Vector, Dtype: config.FP32, FlopsPerItem: 16}
	done, err := p.GPU.Dispatch(memAt, k, 64*64, 64, 0)
	switch {
	case errors.Is(err, gpu.ErrNoCompute):
		t.AddRow("gpu dispatch", "no compute (all XCDs offline)")
		degraded = true
	case err != nil:
		return "", fmt.Errorf("compute probe: %w", err)
	default:
		t.AddRow("gpu dispatch", fmt.Sprintf("64 workgroups on %d XCDs (%d CUs) in %v",
			p.GPU.OnlineXCDs(), p.GPU.TotalCUs(), done-memAt))
	}

	for _, s := range inj.Summaries() {
		ctx.RecordFault(s)
	}
	if degraded {
		ctx.MarkDegraded()
	}
	return t.String(), nil
}

// RegisterChaosStorms adds count chaos-storm experiments (IDs chaos-000,
// chaos-001, ...) to reg, with storm seeds baseSeed, baseSeed+1, ... —
// the -chaos-seed / -chaos-count flags and the chaos property test both
// build their sweeps through here, so a reported seed replays exactly.
func RegisterChaosStorms(reg *runner.Registry, baseSeed uint64, count int) {
	for i := 0; i < count; i++ {
		seed := baseSeed + uint64(i)
		reg.MustRegister(runner.Experiment{
			ID:   fmt.Sprintf("chaos-%03d", i),
			Desc: fmt.Sprintf("chaos: random fault storm, seed %d", seed),
			Run: func(ctx *runner.Ctx) (string, error) {
				return ExperimentChaosStorm(ctx, seed)
			},
		})
	}
}
