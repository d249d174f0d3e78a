package progmodel

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

const testN = 1 << 16

func newPlatform(t testing.TB, spec *config.PlatformSpec) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunCPUOnlyVerifies(t *testing.T) {
	p := newPlatform(t, config.MI300A())
	r, err := RunCPUOnly(p, testN)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("CPU-only program computed wrong results")
	}
	for _, name := range []string{"malloc", "init", "compute", "post"} {
		if r.StepByName(name) == nil {
			t.Errorf("missing step %q", name)
		}
	}
	if r.CopyBytes != 0 {
		t.Error("CPU-only program copied data")
	}
}

func TestRunDiscreteVerifiesAndCopies(t *testing.T) {
	p := newPlatform(t, config.MI250X())
	r, err := RunDiscrete(p, testN)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("discrete program computed wrong results")
	}
	// Fig. 14(b): both copies present and nonzero.
	h2d, d2h := r.StepByName("hipMemcpy H2D"), r.StepByName("hipMemcpy D2H")
	if h2d == nil || d2h == nil {
		t.Fatal("memcpy steps missing")
	}
	if h2d.Duration() <= 0 || d2h.Duration() <= 0 {
		t.Error("memcpy steps took no time")
	}
	if r.CopyBytes != 2*int64(testN)*8 {
		t.Errorf("CopyBytes = %d, want %d", r.CopyBytes, 2*testN*8)
	}
}

func TestRunAPUVerifiesNoCopies(t *testing.T) {
	p := newPlatform(t, config.MI300A())
	r, err := RunAPU(p, testN)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("APU program computed wrong results")
	}
	if r.StepByName("hipMemcpy H2D") != nil || r.CopyBytes != 0 {
		t.Error("APU program performed copies (§VI.B: zero copy)")
	}
}

func TestAPUBeatsDiscreteOnCopyHeavyProgram(t *testing.T) {
	// The headline Fig. 14 comparison: same computation, the discrete
	// platform pays two PCIe-bound copies that dominate this small
	// kernel; the APU does not.
	apu := newPlatform(t, config.MI300A())
	disc := newPlatform(t, config.MI250X())
	ra, err := RunAPU(apu, testN)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RunDiscrete(disc, testN)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Total >= rd.Total {
		t.Errorf("APU total %v not faster than discrete %v", ra.Total, rd.Total)
	}
	// Copies must be a visible fraction of the discrete total.
	copies := rd.StepByName("hipMemcpy H2D").Duration() + rd.StepByName("hipMemcpy D2H").Duration()
	if float64(copies)/float64(rd.Total) < 0.15 {
		t.Errorf("copies are %.2f of discrete total; expected substantial", float64(copies)/float64(rd.Total))
	}
}

func TestRunDiscreteRejectsAPU(t *testing.T) {
	p := newPlatform(t, config.MI300A())
	if _, err := RunDiscrete(p, testN); err == nil {
		t.Error("RunDiscrete accepted a unified-memory platform")
	}
	m := newPlatform(t, config.MI250X())
	if _, err := RunAPU(m, testN); err == nil {
		t.Error("RunAPU accepted a discrete platform")
	}
}

func TestRunOverlapFasterThanCoarse(t *testing.T) {
	p := newPlatform(t, config.MI300A())
	r, err := RunOverlap(p, 1<<18, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("overlap program corrupted data or lost flags")
	}
	if r.FlagsObserved != 32 {
		t.Errorf("flags observed = %d, want 32", r.FlagsObserved)
	}
	if r.Speedup <= 1.0 {
		t.Errorf("fine-grained speedup = %.2f, want > 1 (Fig. 15)", r.Speedup)
	}
	if r.FineTotal >= r.CoarseTotal {
		t.Error("fine-grained not faster")
	}
}

func TestRunOverlapValidation(t *testing.T) {
	p := newPlatform(t, config.MI300A())
	if _, err := RunOverlap(p, 10, 100); err == nil {
		t.Error("n < chunks accepted")
	}
	m := newPlatform(t, config.MI250X())
	if _, err := RunOverlap(m, 1000, 10); err == nil {
		t.Error("overlap on discrete platform accepted")
	}
}

func TestExpectedSumClosedForm(t *testing.T) {
	// Spot-check the verifier's closed form against a direct sum.
	n := 1000
	var direct float64
	for i := 0; i < n; i++ {
		direct += coefA*float64(i) + coefB
	}
	if got := expectedSum(n); got != direct {
		t.Errorf("expectedSum = %v, direct = %v", got, direct)
	}
}
