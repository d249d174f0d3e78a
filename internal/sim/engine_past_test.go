package sim

import "testing"

// The past-horizon contract, pinned: Run with a deadline behind the
// clock and AdvanceTo with a past instant are both no-ops. They never
// rewind the clock, never fire events, and are idempotent — consistent
// with each other, and distinct from Schedule into the past, which stays
// a panic (a causality bug, not a clamp).

func TestEngineRunPastDeadlineIsNoOp(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		eng.Schedule(at, eng.Class("tick"), func(Time) { fired = append(fired, at) })
	}
	if n := eng.Run(20); n != 2 {
		t.Fatalf("Run(20) fired %d events, want 2", n)
	}
	for _, deadline := range []Time{0, 5, 19, 20} {
		if n := eng.Run(deadline); n != 0 {
			t.Fatalf("Run(%v) with clock at %v fired %d events, want 0", deadline, eng.Now(), n)
		}
		if eng.Now() != 20 {
			t.Fatalf("Run(%v) moved the clock to %v, want it pinned at 20", deadline, eng.Now())
		}
	}
	if len(fired) != 2 {
		t.Fatalf("past-deadline runs fired events: %v", fired)
	}
	// The engine still works afterward.
	if n := eng.Run(30); n != 1 {
		t.Fatalf("Run(30) after no-op runs fired %d events, want 1", n)
	}
}

func TestEngineAdvanceToPastIsNoOp(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(50, eng.Class("tick"), func(Time) {})
	eng.AdvanceTo(40)
	if eng.Now() != 40 {
		t.Fatalf("AdvanceTo(40) left clock at %v", eng.Now())
	}
	for _, at := range []Time{0, 39, 40} {
		eng.AdvanceTo(at)
		if eng.Now() != 40 {
			t.Fatalf("AdvanceTo(%v) moved the clock to %v, want it pinned at 40", at, eng.Now())
		}
	}
	if eng.Pending() != 1 {
		t.Fatalf("no-op AdvanceTo disturbed the queue: %d pending, want 1", eng.Pending())
	}
	// Forward motion still works, and still refuses to skip pending work.
	eng.RunAll()
	if eng.Now() != 50 {
		t.Fatalf("RunAll ended at %v, want 50", eng.Now())
	}
}

func TestEngineQuiescent(t *testing.T) {
	eng := NewEngine()
	if !eng.Quiescent() {
		t.Fatal("empty engine is not quiescent")
	}
	eng.Schedule(10, eng.Class("tick"), func(Time) {})
	if eng.Quiescent() {
		t.Fatal("engine with a live pending event reports quiescent")
	}
	ev := eng.Schedule(Forever, eng.Class("sentinel"), func(Time) {})
	eng.Run(10)
	if !eng.Quiescent() {
		t.Fatal("engine with only a Forever sentinel left is not quiescent")
	}
	eng.Cancel(ev)
	if !eng.Quiescent() {
		t.Fatal("drained engine is not quiescent")
	}
}
