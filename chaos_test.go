package apusim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/runner"
)

// The chaos property test: for many (seed, storm) pairs on the MI300A
// platform, every run must complete ok or degraded, or fail with a typed
// error — never panic, never hang (the watchdog and suite timeout bound
// it), never violate a conservation ledger — and the audit reports must
// be byte-identical at any parallelism degree.

const (
	chaosTestSeed   = 0xC4A05
	chaosTestStorms = 64
)

func chaosRegistry(t *testing.T) *runner.Registry {
	t.Helper()
	reg := runner.NewRegistry()
	RegisterChaosStorms(reg, chaosTestSeed, chaosTestStorms)
	return reg
}

func runChaosSuite(t *testing.T, parallel int) *runner.SuiteResult {
	t.Helper()
	s, err := chaosRegistry(t).RunSuite(runner.Options{
		Parallel: parallel,
		Timeout:  2 * time.Minute,
		Audit:    true,
	})
	if err != nil {
		t.Fatalf("RunSuite(parallel=%d): %v", parallel, err)
	}
	return s
}

func TestChaosStormsCompleteWithoutPanicsHangsOrViolations(t *testing.T) {
	s := runChaosSuite(t, 8)
	for _, r := range s.Results {
		switch r.Status {
		case runner.StatusOK, runner.StatusDegraded:
			// The contract: completed, possibly under faults.
		case runner.StatusError:
			// A typed error is an acceptable outcome; an untyped one
			// means a storm found a real bug.
			if !errors.Is(r.Err, fabric.ErrPartitioned) && !errors.Is(r.Err, gpu.ErrNoCompute) {
				t.Errorf("%s: untyped error: %v", r.ID, r.Err)
			}
		default:
			// StatusPanic, StatusTimeout, StatusViolated all break the
			// robustness contract.
			t.Errorf("%s: status %s (err %v)", r.ID, r.Status, r.Err)
		}
		if r.Audit == nil {
			if r.Status == runner.StatusOK || r.Status == runner.StatusDegraded {
				t.Errorf("%s: completed without an audit report under Options.Audit", r.ID)
			}
			continue
		}
		if !r.Audit.OK() {
			t.Errorf("%s: audit violations: %v", r.ID, r.Audit.Violations)
		}
	}
}

func TestChaosAuditReportsIdenticalAcrossParallelism(t *testing.T) {
	var seq, par bytes.Buffer
	if err := runChaosSuite(t, 1).WriteAuditRuns(&seq); err != nil {
		t.Fatalf("WriteAuditRuns(parallel=1): %v", err)
	}
	if err := runChaosSuite(t, 8).WriteAuditRuns(&par); err != nil {
		t.Fatalf("WriteAuditRuns(parallel=8): %v", err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("audit reports differ across parallelism degrees:\nparallel=1: %d bytes\nparallel=8: %d bytes",
			seq.Len(), par.Len())
	}
	if seq.Len() == 0 {
		t.Fatal("audit runs file is empty")
	}
}

func TestChaosStormOutputsIdenticalAcrossParallelism(t *testing.T) {
	a, b := runChaosSuite(t, 1), runChaosSuite(t, 8)
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.ID != rb.ID || ra.Status != rb.Status || ra.Output != rb.Output {
			t.Errorf("%s: run diverges across parallelism (status %s vs %s, %d vs %d output bytes)",
				ra.ID, ra.Status, rb.Status, len(ra.Output), len(rb.Output))
		}
	}
}
