package multisocket

import (
	"testing"
	"testing/quick"
)

func system(t testing.TB) *System {
	t.Helper()
	s, err := NewQuadAPUSystem()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSoftwareCoherenceWinsForKernelScaleData(t *testing.T) {
	s := system(t)
	// A 1 GB kernel output handoff: the shipped software-coherent design
	// must beat per-line hardware coherence decisively.
	const gb = 1 << 30
	sw := s.SoftwareCoherentHandoff(gb)
	hw := s.HardwareCoherentHandoff(gb)
	if sw.Total >= hw.Total {
		t.Errorf("software coherent (%v) should beat hardware coherent (%v) at 1 GB", sw.Total, hw.Total)
	}
	// And place no probe traffic on the links.
	if sw.IFBytes >= hw.IFBytes {
		t.Errorf("software IF traffic (%d) should be below hardware (%d)", sw.IFBytes, hw.IFBytes)
	}
}

func TestHardwareCoherenceWinsForTinyData(t *testing.T) {
	s := system(t)
	// A few lines of shared state: flushing a scope is overkill; lazy
	// hardware pulls win. This is why the CPUs stay hardware coherent.
	sw := s.SoftwareCoherentHandoff(256)
	hw := s.HardwareCoherentHandoff(256)
	if hw.Total >= sw.Total {
		t.Errorf("hardware coherent (%v) should beat software (%v) at 256 B", hw.Total, sw.Total)
	}
}

func TestCrossoverInteriorAndOrdered(t *testing.T) {
	s := system(t)
	n := s.Crossover(64, 1<<30)
	if n <= 64 || n > 1<<30 {
		t.Fatalf("crossover = %d, want interior", n)
	}
	if s.SoftwareCoherentHandoff(n).Total >= s.HardwareCoherentHandoff(n).Total {
		t.Error("crossover point does not favor software coherence")
	}
	if s.SoftwareCoherentHandoff(n/2).Total < s.HardwareCoherentHandoff(n/2).Total {
		t.Error("below crossover should favor hardware coherence")
	}
}

func TestCoherenceBandwidthTax(t *testing.T) {
	s := system(t)
	tax := s.CoherenceBandwidthTax(1 << 30)
	// 64 B of probe traffic per 128 B line = 1/3 of link bandwidth.
	if tax < 0.3 || tax > 0.35 {
		t.Errorf("coherence tax = %.3f, want ~0.33", tax)
	}
}

func TestSystemGeometry(t *testing.T) {
	s := system(t)
	if s.PairBWPerDir != 128e9 {
		t.Errorf("pair BW = %g, want 128 GB/s (two x16 links)", s.PairBWPerDir)
	}
}

// Property: both handoff costs are monotonically nondecreasing in size,
// and software coherence's advantage grows with size.
func TestHandoffMonotonicProperty(t *testing.T) {
	s := system(t)
	f := func(aRaw, bRaw uint32) bool {
		a, b := int64(aRaw)+1, int64(bRaw)+1
		if a > b {
			a, b = b, a
		}
		swA, swB := s.SoftwareCoherentHandoff(a), s.SoftwareCoherentHandoff(b)
		hwA, hwB := s.HardwareCoherentHandoff(a), s.HardwareCoherentHandoff(b)
		if swB.Total < swA.Total || hwB.Total < hwA.Total {
			return false
		}
		// Advantage (hw - sw) grows with size.
		return hwB.Total-swB.Total >= hwA.Total-swA.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
