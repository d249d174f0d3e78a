package progmodel

import (
	"testing"

	"repro/internal/config"
)

func TestRunManagedVerifies(t *testing.T) {
	p := newPlatform(t, config.MI250X())
	r, st, err := RunManaged(p, testN)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("managed program computed wrong results")
	}
	pages := int64(testN) * 8 / 4096
	if st.PagesToDevice != 2*pages {
		t.Errorf("pages to device = %d, want %d (x and y)", st.PagesToDevice, 2*pages)
	}
	if st.PagesToHost != pages {
		t.Errorf("pages to host = %d, want %d (y back)", st.PagesToHost, pages)
	}
	if st.Faults <= 0 {
		t.Error("no faults recorded")
	}
}

func TestManagedSlowerThanExplicitCopies(t *testing.T) {
	// Page migration moves the same data as explicit hipMemcpy but pays
	// fault overhead on top — and it moves y twice (write-allocate H2D
	// plus the D2H readback).
	pm := newPlatform(t, config.MI250X())
	rm, _, err := RunManaged(pm, testN)
	if err != nil {
		t.Fatal(err)
	}
	pd := newPlatform(t, config.MI250X())
	rd, err := RunDiscrete(pd, testN)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Total <= rd.Total {
		t.Errorf("managed (%v) should be slower than explicit copies (%v)", rm.Total, rd.Total)
	}
}

func TestTrueUnifiedBeatsManaged(t *testing.T) {
	// The §VI.B punchline: the APU's physical unified memory beats the
	// "appearance of unified memory" by the full migration cost.
	apu := newPlatform(t, config.MI300A())
	ra, err := RunAPU(apu, testN)
	if err != nil {
		t.Fatal(err)
	}
	disc := newPlatform(t, config.MI250X())
	rm, _, err := RunManaged(disc, testN)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Total >= rm.Total {
		t.Errorf("APU (%v) should beat managed migration (%v)", ra.Total, rm.Total)
	}
	if ra.CopyBytes != 0 || rm.CopyBytes == 0 {
		t.Error("copy accounting wrong")
	}
}

func TestRunManagedRejectsAPU(t *testing.T) {
	p := newPlatform(t, config.MI300A())
	if _, _, err := RunManaged(p, testN); err == nil {
		t.Error("managed migration accepted a unified-memory platform")
	}
}
