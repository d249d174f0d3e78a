package apusim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ras"
	"repro/internal/runner"
)

// rasIDs are the fault-injection experiments registered by this package.
var rasIDs = []string{"raslink", "raschan", "rasxcd", "rasecc"}

// TestRASExperimentsDeterministic is the acceptance check for seeded fault
// injection: running the RAS experiments twice — and at different
// parallelism — produces byte-identical stdout, and every run completes
// degraded rather than failed.
func TestRASExperimentsDeterministic(t *testing.T) {
	render := func(parallel int) string {
		suite, err := Experiments().RunSuite(runner.Options{Parallel: parallel, IDs: rasIDs})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range suite.Failed() {
			t.Fatalf("%s failed (%s): %v", r.ID, r.Status, r.Err)
		}
		if got := len(suite.Degraded()); got != len(rasIDs) {
			t.Fatalf("%d of %d RAS experiments degraded, want all (faults must fire)", got, len(rasIDs))
		}
		var b bytes.Buffer
		if err := suite.WriteOutputs(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render(1)
	if second := render(1); second != first {
		t.Error("same-seed RAS runs produced different bytes")
	}
	if par := render(4); par != first {
		t.Error("parallel RAS run produced different bytes than sequential")
	}
}

// TestFaultPlanDegradedVsPartition pins the cmd/repro -faults contract: a
// survivable plan completes degraded with every fault recorded, while a
// partitioning plan fails with the typed fabric error.
func TestFaultPlanDegradedVsPartition(t *testing.T) {
	run := func(plan *ras.Plan) (runner.Result, string) {
		reg := runner.NewRegistry()
		reg.MustRegister(runner.Experiment{ID: "faultplan", Desc: "test plan",
			Run: func(ctx *runner.Ctx) (string, error) {
				return ExperimentFaultPlan(ctx, plan)
			}})
		suite, err := reg.RunSuite(runner.Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := suite.WriteOutputs(&b); err != nil {
			t.Fatal(err)
		}
		return suite.Results[0], b.String()
	}

	survivable := &ras.Plan{Seed: 9, Faults: []ras.Fault{
		{Kind: ras.FaultLinkDown, AtNS: 1000, A: "IOD-A", B: "IOD-B"},
		{Kind: ras.FaultChannelRetire, AtNS: 2000, Count: 4},
	}}
	res, out := run(survivable)
	if res.Status != runner.StatusDegraded {
		t.Fatalf("survivable plan status = %s, want degraded", res.Status)
	}
	if len(res.Faults) != 2 {
		t.Errorf("survivable plan recorded %d faults, want 2", len(res.Faults))
	}
	if !strings.Contains(out, "DEGRADED (2 faults)") {
		t.Errorf("output missing degraded banner:\n%s", out)
	}
	// Same plan, same bytes.
	if _, again := run(survivable); again != out {
		t.Error("same fault plan produced different bytes")
	}

	partition := &ras.Plan{Seed: 9, Faults: []ras.Fault{
		{Kind: ras.FaultLinkDown, AtNS: 1000, A: "IOD-A", B: "IOD-B"},
		{Kind: ras.FaultLinkDown, AtNS: 1000, A: "IOD-B", B: "IOD-D"},
	}}
	res, _ = run(partition)
	if res.Status != runner.StatusError {
		t.Fatalf("partitioning plan status = %s, want error", res.Status)
	}
	if !errors.Is(res.Err, fabric.ErrPartitioned) {
		t.Errorf("partitioning plan error = %v, want fabric.ErrPartitioned", res.Err)
	}
}

// TestRASExperimentsRegistered confirms the registry carries the RAS suite
// so cmd/repro, apusimd and the benchmarks all see it.
func TestRASExperimentsRegistered(t *testing.T) {
	reg := Experiments()
	for _, id := range rasIDs {
		if _, ok := reg.Get(id); !ok {
			t.Errorf("registry missing %q", id)
		}
	}
}
