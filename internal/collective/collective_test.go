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
