package scale

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

func mi300a(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(config.MI300A())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStrongScaleComputeHeavy(t *testing.T) {
	// A compute-heavy workload with small exchanges scales nearly
	// linearly across the quad-APU node.
	w := &workload.GROMACS{Atoms: 3_000_000, Steps: 100}
	a := audit.New()
	pts, err := StrongScale(a, w, mi300a(t), topology.QuadAPUNode, 4, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// One fabric ledger per multi-socket communicator, and the bytes of
	// every all-reduce add up.
	if a.Checks() != 3 {
		t.Errorf("auditor has %d checks, want 3 (communicators of 2, 3 and 4 sockets)", a.Checks())
	}
	if err := a.Audit(0).Err(); err != nil {
		t.Error(err)
	}
	if pts[0].Speedup != 1 || pts[0].CommTime != 0 {
		t.Errorf("baseline point wrong: %+v", pts[0])
	}
	if pts[3].Speedup < 2.5 {
		t.Errorf("4-socket speedup = %.2f, want > 2.5 for compute-heavy work", pts[3].Speedup)
	}
	// Speedup is monotone in sockets for this regime.
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup < pts[i-1].Speedup {
			t.Errorf("speedup regressed at %d sockets", pts[i].Sockets)
		}
	}
}

func TestStrongScaleCommBound(t *testing.T) {
	// A tiny workload with huge per-iteration exchanges stops scaling:
	// communication dominates and efficiency collapses.
	w := &workload.STREAM{Elements: 1 << 22, Iterations: 1}
	pts, err := StrongScale(nil, w, mi300a(t), topology.QuadAPUNode, 4, 50, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if pts[3].Efficiency > 0.5 {
		t.Errorf("comm-bound efficiency at 4 sockets = %.2f, want collapse", pts[3].Efficiency)
	}
	if pts[3].CommTime <= pts[3].ComputeTime {
		t.Error("communication should dominate this regime")
	}
}

func TestStrongScaleValidation(t *testing.T) {
	w := &workload.STREAM{Elements: 1 << 20, Iterations: 1}
	if _, err := StrongScale(nil, w, mi300a(t), topology.QuadAPUNode, 0, 1, 1024); err == nil {
		t.Error("zero sockets accepted")
	}
	// Requesting more sockets than the node has clamps.
	pts, err := StrongScale(nil, w, mi300a(t), topology.QuadAPUNode, 16, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Errorf("clamped points = %d, want 4", len(pts))
	}
}
