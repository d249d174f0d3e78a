package coherence

import (
	"testing"
	"testing/quick"
)

func TestReadColdGrantsExclusiveMOESI(t *testing.T) {
	d := NewProbeFilter("pf", 4)
	out := d.Read(0, 100)
	if out.Probes != 0 {
		t.Errorf("cold read sent %d probes", out.Probes)
	}
	st, n := d.StateOf(100)
	if st != Exclusive || n != 1 {
		t.Errorf("state = %s/%d, want E/1", st, n)
	}
}

func TestReadColdGrantsSharedMSI(t *testing.T) {
	d := NewGPUDirectory("gpu", 8)
	d.Read(0, 100)
	st, _ := d.StateOf(100)
	if st != Shared {
		t.Errorf("MSI cold read state = %s, want S", st)
	}
}

func TestReadSharingDowngradesOwner(t *testing.T) {
	d := NewProbeFilter("pf", 4)
	d.Read(0, 7)
	out := d.Read(1, 7)
	if out.Probes != 1 || !out.CacheTransfer {
		t.Errorf("second read = %+v, want 1 probe, cache transfer", out)
	}
	st, n := d.StateOf(7)
	if st != Shared || n != 2 {
		t.Errorf("state = %s/%d, want S/2", st, n)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewProbeFilter("pf", 8)
	for a := 0; a < 5; a++ {
		d.Read(a, 42)
	}
	out := d.Write(5, 42)
	if out.Probes != 5 {
		t.Errorf("write probed %d agents, want 5", out.Probes)
	}
	st, n := d.StateOf(42)
	if st != Modified || n != 1 {
		t.Errorf("state = %s/%d, want M/1", st, n)
	}
	if d.Stats().Invalidations != 5 {
		t.Errorf("invalidations = %d", d.Stats().Invalidations)
	}
}

func TestSilentUpgradeExclusiveToModified(t *testing.T) {
	d := NewProbeFilter("pf", 4)
	d.Read(2, 9) // E at agent 2
	out := d.Write(2, 9)
	if out.Probes != 0 || !out.Upgraded {
		t.Errorf("E->M upgrade = %+v, want silent", out)
	}
}

func TestMOESIKeepsDirtyInOwned(t *testing.T) {
	d := NewProbeFilter("pf", 4)
	d.Write(0, 5) // M at agent 0
	out := d.Read(1, 5)
	if !out.CacheTransfer {
		t.Error("dirty read should be cache-to-cache")
	}
	st, n := d.StateOf(5)
	if st != Owned || n != 2 {
		t.Errorf("state = %s/%d, want O/2 (MOESI)", st, n)
	}
}

func TestMSIWritesBackOnDirtyShare(t *testing.T) {
	d := NewGPUDirectory("gpu", 4)
	d.Write(0, 5)
	d.Read(1, 5)
	st, n := d.StateOf(5)
	if st != Shared || n != 2 {
		t.Errorf("state = %s/%d, want S/2 (MSI: no O state)", st, n)
	}
}

func TestProducerConsumerFlagPattern(t *testing.T) {
	// Fig. 15's spin-loop: producer writes a flag line, consumer re-reads.
	d := NewProbeFilter("pf", 2)
	const flag = LineAddr(1000)
	d.Read(1, flag)         // consumer caches the flag (spin)
	out := d.Write(0, flag) // producer sets it -> invalidates consumer
	if out.Probes != 1 {
		t.Errorf("producer write probed %d, want 1", out.Probes)
	}
	out = d.Read(1, flag) // consumer re-read: cache-to-cache transfer
	if !out.CacheTransfer {
		t.Error("consumer re-read should hit producer's M copy")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInvalidAgentPanics(t *testing.T) {
	d := NewProbeFilter("pf", 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range agent did not panic")
		}
	}()
	d.Read(2, 0)
}

// Property: after any access sequence, protocol invariants hold for both
// protocol flavors.
func TestProtocolInvariantsProperty(t *testing.T) {
	type op struct {
		Agent uint8
		Line  uint8
		Write bool
	}
	for _, moesi := range []bool{true, false} {
		moesi := moesi
		f := func(ops []op) bool {
			var d *Directory
			if moesi {
				d = NewProbeFilter("pf", 8)
			} else {
				d = NewGPUDirectory("gpu", 8)
			}
			for _, o := range ops {
				a := int(o.Agent) % 8
				l := LineAddr(o.Line % 32)
				if o.Write {
					d.Write(a, l)
				} else {
					d.Read(a, l)
				}
				if d.CheckInvariants() != nil {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("moesi=%v: %v", moesi, err)
		}
	}
}

// Property: a write by one agent always leaves exactly one sharer.
func TestWriteSoleOwnershipProperty(t *testing.T) {
	f := func(readers []uint8, writer uint8, line uint8) bool {
		d := NewProbeFilter("pf", 16)
		l := LineAddr(line)
		for _, r := range readers {
			d.Read(int(r)%16, l)
		}
		d.Write(int(writer)%16, l)
		st, n := d.StateOf(l)
		return st == Modified && n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDirectoryReadWrite(b *testing.B) {
	d := NewProbeFilter("pf", 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(i%8, LineAddr(i%4096))
		if i%4 == 0 {
			d.Write((i+1)%8, LineAddr(i%4096))
		}
	}
}
