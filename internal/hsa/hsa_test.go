package hsa

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func dispatch(name string, grid, wg int) Packet {
	return Packet{
		Type:       PacketKernelDispatch,
		KernelName: name,
		Grid:       Dim3{grid, 1, 1},
		Workgroup:  Dim3{wg, 1, 1},
	}
}

func TestQueueEnqueueDequeue(t *testing.T) {
	q := NewQueue("q0", 8)
	var doorbells []uint64
	q.Doorbell = func(w uint64) { doorbells = append(doorbells, w) }
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(dispatch("k", 1024, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if q.Depth() != 3 {
		t.Errorf("Depth = %d", q.Depth())
	}
	if len(doorbells) != 3 || doorbells[2] != 3 {
		t.Errorf("doorbells = %v", doorbells)
	}
	p, ok := q.Peek()
	if !ok || p.KernelName != "k" {
		t.Fatal("Peek failed")
	}
	q.Advance()
	if q.Depth() != 2 {
		t.Errorf("Depth after advance = %d", q.Depth())
	}
}

func TestQueueFull(t *testing.T) {
	q := NewQueue("q", 2)
	q.Enqueue(dispatch("a", 64, 64))
	q.Enqueue(dispatch("b", 64, 64))
	if err := q.Enqueue(dispatch("c", 64, 64)); err != ErrQueueFull {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue("q", 4)
	for round := 0; round < 10; round++ {
		if err := q.Enqueue(dispatch("k", 64, 64)); err != nil {
			t.Fatal(err)
		}
		if _, ok := q.Peek(); !ok {
			t.Fatal("Peek after enqueue failed")
		}
		q.Advance()
	}
	if q.Depth() != 0 {
		t.Errorf("Depth = %d after balanced ops", q.Depth())
	}
	if q.WriteIndex() != 10 || q.ReadIndex() != 10 {
		t.Errorf("indices = %d/%d, want 10/10", q.WriteIndex(), q.ReadIndex())
	}
}

func TestQueueAdvanceEmptyPanics(t *testing.T) {
	q := NewQueue("q", 2)
	defer func() {
		if recover() == nil {
			t.Error("Advance on empty queue did not panic")
		}
	}()
	q.Advance()
}

func TestQueueCapacityMustBePowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 3 did not panic")
		}
	}()
	NewQueue("q", 3)
}

func TestPacketValidate(t *testing.T) {
	p := dispatch("k", 1024, 256)
	if err := p.Validate(); err != nil {
		t.Errorf("valid packet rejected: %v", err)
	}
	bad := p
	bad.Grid[0] = 0
	if bad.Validate() == nil {
		t.Error("zero grid accepted")
	}
	bad = p
	bad.Workgroup = Dim3{2048, 1, 1}
	if bad.Validate() == nil {
		t.Error("oversized workgroup accepted")
	}
	barrier := Packet{Type: PacketBarrierAnd}
	if barrier.Validate() != nil {
		t.Error("barrier packet rejected")
	}
}

func TestPacketWorkgroups(t *testing.T) {
	cases := []struct {
		grid, wg Dim3
		want     int
	}{
		{Dim3{1024, 1, 1}, Dim3{256, 1, 1}, 4},
		{Dim3{1000, 1, 1}, Dim3{256, 1, 1}, 4}, // rounds up
		{Dim3{64, 64, 1}, Dim3{16, 16, 1}, 16},
		{Dim3{1, 1, 1}, Dim3{256, 1, 1}, 1},
	}
	for _, c := range cases {
		p := Packet{Grid: c.grid, Workgroup: c.wg}
		if got := p.Workgroups(); got != c.want {
			t.Errorf("Workgroups(%v/%v) = %d, want %d", c.grid, c.wg, got, c.want)
		}
	}
}

func TestSignalSemantics(t *testing.T) {
	s := NewSignal("done", 6) // one decrement per XCD in a partition
	for i := 0; i < 6; i++ {
		s.Sub(sim.Time(i+1)*sim.Microsecond, 1)
	}
	done, at := s.Reached(0)
	if !done {
		t.Fatal("signal did not reach 0")
	}
	if at != 6*sim.Microsecond {
		t.Errorf("completion time = %v, want 6µs (last decrement)", at)
	}
}

func TestSignalSetTimeMonotonic(t *testing.T) {
	s := NewSignal("s", 3)
	s.Sub(10*sim.Microsecond, 1)
	s.Sub(5*sim.Microsecond, 1) // an out-of-order decrement must not move time back
	if s.SetTime() != 10*sim.Microsecond {
		t.Errorf("SetTime = %v", s.SetTime())
	}
	if s.Value() != 1 {
		t.Errorf("Value = %d", s.Value())
	}
}

// Property: depth always equals writes minus retires and never exceeds
// capacity.
func TestQueueDepthInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewQueue("p", 16)
		var w, r int
		for _, enq := range ops {
			if enq {
				if q.Enqueue(dispatch("k", 64, 64)) == nil {
					w++
				}
			} else if q.Depth() > 0 {
				q.Advance()
				r++
			}
			if q.Depth() != w-r || q.Depth() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
