package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, ClassDefault, func(Time) { got = append(got, 3) })
	e.Schedule(10, ClassDefault, func(Time) { got = append(got, 1) })
	e.Schedule(20, ClassDefault, func(Time) { got = append(got, 2) })
	if n := e.RunAll(); n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, ClassDefault, func(Time) { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: %v", got)
		}
	}
}

func TestEngineScheduleFromHandler(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(5, ClassDefault, func(now Time) {
		times = append(times, now)
		e.Schedule(now+7, ClassDefault, func(now Time) { times = append(times, now) })
	})
	e.RunAll()
	if len(times) != 2 || times[0] != 5 || times[1] != 12 {
		t.Fatalf("times = %v, want [5 12]", times)
	}
}

func TestEngineRunDeadline(t *testing.T) {
	e := NewEngine()
	var fired int
	e.Schedule(10, ClassDefault, func(Time) { fired++ })
	e.Schedule(20, ClassDefault, func(Time) { fired++ })
	e.Schedule(30, ClassDefault, func(Time) { fired++ })
	if n := e.Run(20); n != 2 {
		t.Fatalf("fired %d by deadline 20, want 2", n)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	e.Run(25)
	if e.Now() != 25 {
		t.Errorf("Now = %v after empty run, want 25", e.Now())
	}
	e.RunAll()
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

// TestEngineForeverSentinelNeverFires pins the sentinel contract the
// runner depends on: an event parked at Forever stays pending through
// RunAll (and does not drag Now out to infinity), so an experiment that
// drains its own engine mid-run cannot fire the runner's completion
// sentinel early.
func TestEngineForeverSentinelNeverFires(t *testing.T) {
	e := NewEngine()
	var sentinelFired bool
	id := e.Schedule(Forever, ClassDefault, func(Time) { sentinelFired = true })
	var fired int
	e.Schedule(10, ClassDefault, func(Time) { fired++ })
	e.RunAll()
	if sentinelFired {
		t.Fatal("event at Forever fired during RunAll")
	}
	if fired != 1 {
		t.Errorf("finite event fired %d times, want 1", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v after RunAll, want 10 (last finite event)", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want the sentinel still queued", e.Pending())
	}
	// Cancelling the sentinel lets the queue drain as before.
	e.Cancel(id)
	e.RunAll()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling sentinel, want 0", e.Pending())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	var fired bool
	id := e.Schedule(10, ClassDefault, func(Time) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("Cancel returned true twice")
	}
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
}

// TestEngineCancelAfterFire covers the cancel-after-pop edge: once an
// event has fired (been popped off the heap), cancelling its ID must be
// a no-op that reports false and does not disturb the stats.
func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	var fired int
	id := e.Schedule(10, ClassDefault, func(Time) { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Cancel(id) {
		t.Error("Cancel returned true for an already-fired event")
	}
	if e.Cancelled() != 0 {
		t.Errorf("Cancelled = %d after no-op cancel, want 0", e.Cancelled())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", e.Fired())
	}
}

// TestEngineCancelFromSameTimestampHandler exercises both sides of the
// FIFO + cancel interaction at one timestamp: a handler can still cancel
// a later event scheduled for the same instant (it has not popped yet),
// but cancelling itself mid-flight fails (it already popped).
func TestEngineCancelFromSameTimestampHandler(t *testing.T) {
	e := NewEngine()
	var order []string
	var firstID, secondID EventID
	firstID = e.Schedule(50, ClassDefault, func(Time) {
		order = append(order, "first")
		if e.Cancel(firstID) {
			t.Error("handler cancelled itself after popping")
		}
		if !e.Cancel(secondID) {
			t.Error("could not cancel a same-timestamp event still queued")
		}
	})
	secondID = e.Schedule(50, ClassDefault, func(Time) { order = append(order, "second") })
	e.Schedule(50, ClassDefault, func(Time) { order = append(order, "third") })
	e.RunAll()
	// FIFO among equal timestamps, minus the cancelled middle event.
	if len(order) != 2 || order[0] != "first" || order[1] != "third" {
		t.Fatalf("order = %v, want [first third]", order)
	}
	if e.Cancelled() != 1 {
		t.Errorf("Cancelled = %d, want 1", e.Cancelled())
	}
}

// TestEngineDrained covers the stats accessors around lazy reaping:
// cancelled events keep Pending nonzero but the engine is Drained.
func TestEngineDrained(t *testing.T) {
	e := NewEngine()
	if !e.Drained() {
		t.Error("fresh engine not Drained")
	}
	id1 := e.Schedule(10, ClassDefault, func(Time) {})
	e.Schedule(20, ClassDefault, func(Time) {})
	if e.Drained() {
		t.Error("Drained with live events queued")
	}
	e.Cancel(id1)
	if e.Drained() {
		t.Error("Drained while a live event remains")
	}
	e.Run(20)
	if !e.Drained() {
		t.Error("not Drained after running all live events")
	}
	// A cancelled-but-unreaped event: Pending counts it, Drained ignores it.
	id3 := e.Schedule(30, ClassDefault, func(Time) {})
	e.Cancel(id3)
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (lazy reap)", e.Pending())
	}
	if !e.Drained() {
		t.Error("not Drained with only dead events queued")
	}
	if e.Fired() != 1 || e.Cancelled() != 2 {
		t.Errorf("Fired/Cancelled = %d/%d, want 1/2", e.Fired(), e.Cancelled())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, ClassDefault, func(Time) {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, ClassDefault, func(Time) {})
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(500)
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want 500", e.Now())
	}
	e.Schedule(600, ClassDefault, func(Time) {})
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo skipping pending events did not panic")
		}
	}()
	e.AdvanceTo(700)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
		{Forever, "∞"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1e-9); got != Nanosecond {
		t.Errorf("FromSeconds(1ns) = %v", got)
	}
	if got := FromSeconds(-1); got != 0 {
		t.Errorf("FromSeconds(-1) = %v, want 0", got)
	}
	if got := FromSeconds(math.Inf(1)); got != Forever {
		t.Errorf("FromSeconds(+inf) = %v, want Forever", got)
	}
	if got := FromSeconds(math.NaN()); got != Forever {
		t.Errorf("FromSeconds(NaN) = %v, want Forever", got)
	}
}

// Property: for any batch of event offsets, events fire in nondecreasing
// time order and every event fires exactly once.
func TestEngineFiringOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			e.Schedule(Time(off), ClassDefault, func(now Time) { fired = append(fired, now) })
		}
		e.RunAll()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RNG.Intn stays within bounds and Float64 within [0,1).
func TestRNGBoundsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		bound := int(n)%100 + 1
		for i := 0; i < 50; i++ {
			if v := r.Intn(bound); v < 0 || v >= bound {
				return false
			}
			if f := r.Float64(); f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGForkDeterministicAndDecorrelated(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	fa, fb := a.Fork(1), b.Fork(1)
	for i := 0; i < 100; i++ {
		if fa.Uint64() != fb.Uint64() {
			t.Fatal("same-seed same-salt forks diverged")
		}
	}
	// Different salts from the same parent state give different streams.
	c, d := NewRNG(42), NewRNG(42)
	fc, fd := c.Fork(1), d.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if fc.Uint64() == fd.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different-salt forks collided %d/100 draws", same)
	}
	// Forking advances the parent exactly one draw.
	p1, p2 := NewRNG(7), NewRNG(7)
	p1.Fork(0)
	p2.Uint64()
	if p1.Uint64() != p2.Uint64() {
		t.Error("Fork did not consume exactly one parent draw")
	}
}

func TestClassInterningIsIdempotent(t *testing.T) {
	e := NewEngine()
	a := e.Class("hbm.access")
	b := e.Class("hbm.access")
	if a != b {
		t.Fatalf("interning twice gave %d and %d", a, b)
	}
	if a == ClassDefault {
		t.Fatal("fresh class collided with ClassDefault")
	}
	if e.ClassName(ClassDefault) != DefaultClass {
		t.Errorf("ClassName(ClassDefault) = %q", e.ClassName(ClassDefault))
	}
	if e.ClassName(Class(99)) != "?" {
		t.Errorf("unknown handle resolved to %q", e.ClassName(Class(99)))
	}
}

func TestScheduleUnknownClassPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("Schedule with a foreign Class handle did not panic")
		}
	}()
	e.Schedule(10, Class(7), func(Time) {})
}

func TestProfileSnapshotAggregates(t *testing.T) {
	e := NewEngine()
	fault := e.Class("ras.fault")
	e.EnableProfiling()
	e.Schedule(10, fault, func(Time) {})
	e.Schedule(20, fault, func(Time) {})
	e.Schedule(30, ClassDefault, func(Time) {})
	e.RunAll()
	snap := e.ProfileSnapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d classes, want 2: %+v", len(snap), snap)
	}
	// Sorted by name: "event" < "ras.fault".
	if snap[0].Name != DefaultClass || snap[0].Fired != 1 {
		t.Errorf("snap[0] = %+v, want event×1", snap[0])
	}
	if snap[1].Name != "ras.fault" || snap[1].Fired != 2 {
		t.Errorf("snap[1] = %+v, want ras.fault×2", snap[1])
	}
}

func TestProfilingOffCollectsNothing(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, ClassDefault, func(Time) {})
	e.RunAll()
	if snap := e.ProfileSnapshot(); len(snap) != 0 {
		t.Errorf("unprofiled engine snapshot = %+v, want empty", snap)
	}
}

func TestQueueHighWater(t *testing.T) {
	e := NewEngine()
	if e.QueueHighWater() != 0 {
		t.Errorf("fresh engine high water = %d", e.QueueHighWater())
	}
	var ids []EventID
	for i := 0; i < 5; i++ {
		ids = append(ids, e.Schedule(Time(i+1), ClassDefault, func(Time) {}))
	}
	e.Cancel(ids[4])
	e.RunAll()
	if e.QueueHighWater() != 5 {
		t.Errorf("high water = %d, want 5 (cancelled events count until reaped)", e.QueueHighWater())
	}
	// Draining does not lower the mark.
	e.Schedule(e.Now()+1, ClassDefault, func(Time) {})
	if e.QueueHighWater() != 5 {
		t.Errorf("high water dropped to %d", e.QueueHighWater())
	}
}

func TestPastSchedulingPanicNamesEventClass(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, e.Class("warmup"), func(Time) {})
	e.RunAll()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Schedule in the past did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, `"ras.fault"`) {
			t.Errorf("panic %q does not name the event class", msg)
		}
		if !strings.Contains(msg, "50ps") || !strings.Contains(msg, "100ps") {
			t.Errorf("panic %q does not report the requested and current times", msg)
		}
	}()
	e.Schedule(50, e.Class("ras.fault"), func(Time) {})
}
