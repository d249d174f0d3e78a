package collective

import (
	"testing"

	"repro/internal/topology"
)

func quadComm(t testing.TB) *Comm {
	t.Helper()
	n, err := topology.QuadAPUNode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewComm(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func octoComm(t testing.TB) *Comm {
	t.Helper()
	n, err := topology.OctoAcceleratorNode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewComm(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRingAllReduceQuad(t *testing.T) {
	c := quadComm(t)
	r, err := c.RingAllReduce(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 6 { // 2(p-1), p=4
		t.Errorf("steps = %d, want 6", r.Steps)
	}
	if r.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	// The ring uses only one neighbor link per step: bus BW is bounded by
	// a pair's bandwidth (128 GB/s/dir on the quad node).
	if r.BusBW > 130e9 {
		t.Errorf("ring bus BW %.0f GB/s exceeds the pair link", r.BusBW/1e9)
	}
	if r.BusBW < 30e9 {
		t.Errorf("ring bus BW %.0f GB/s implausibly low", r.BusBW/1e9)
	}
}

func TestDirectBeatsRingOnFullyConnectedNode(t *testing.T) {
	// The whole point of the Fig. 18 fully-connected topology: the
	// direct algorithm engages every link simultaneously while the ring
	// leaves most idle.
	cr := quadComm(t)
	ring, err := cr.RingAllReduce(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	cd := quadComm(t)
	direct, err := cd.DirectAllReduce(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Time >= ring.Time {
		t.Errorf("direct (%v) should beat ring (%v) on a fully-connected node",
			direct.Time, ring.Time)
	}
	if direct.BusBW <= ring.BusBW {
		t.Errorf("direct bus BW %.0f <= ring %.0f GB/s", direct.BusBW/1e9, ring.BusBW/1e9)
	}
}

func TestOctoNodeCollectives(t *testing.T) {
	c := octoComm(t)
	r, err := c.DirectAllReduce(0, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time <= 0 {
		t.Fatal("no time")
	}
}

func TestCommValidation(t *testing.T) {
	n := &topology.Node{Name: "solo"}
	if _, err := NewComm(n); err == nil {
		t.Error("empty node accepted")
	}
}

func TestNodesAllReduceEquallyFast(t *testing.T) {
	// A neat consequence of the Fig. 18 link budgets: the quad node
	// moves n/4 chunks over 128 GB/s pairs, the octo node n/8 chunks
	// over 64 GB/s pairs — the direct all-reduce finishes in the same
	// wall time on both, so the larger node gets higher aggregate
	// bandwidth for free.
	q := quadComm(t)
	o := octoComm(t)
	rq, err := q.DirectAllReduce(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := o.DirectAllReduce(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rq.Time) / float64(ro.Time)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("quad (%v) and octo (%v) all-reduce times should match within 10%%", rq.Time, ro.Time)
	}
	if ro.BusBW <= rq.BusBW {
		t.Errorf("octo bus BW (%.0f GB/s) should exceed quad (%.0f GB/s)", ro.BusBW/1e9, rq.BusBW/1e9)
	}
}
