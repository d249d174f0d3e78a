package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Differential tests: the engine's queue vs a trivially-correct reference
// engine.
//
// The reference implementation is the spec made executable: a flat slice
// of events popped by linear minimum scan over (at, seq). It is obviously
// correct and obviously slow. The same randomized workload program runs
// against both engines; any divergence in firing order — across
// out-of-order schedules, far jumps, equal-timestamp bursts, purges or
// cancel interleavings — shows up as a trace mismatch.
// ---------------------------------------------------------------------------

// Delay regimes the randomized workloads draw from besides "same
// instant": within ~1 ns, within ~262 ns, and beyond. They mix dense
// timestamp collisions with long jumps.
const (
	shortSpan = Time(1) << 10
	longSpan  = Time(1) << 18
)

// scheduler is the minimal surface the differential driver needs; both
// the real Engine and the reference engine implement it.
type scheduler interface {
	schedule(at Time, fn func(Time)) (cancel func() bool)
	now() Time
	runAll()
}

// engineSched adapts *Engine.
type engineSched struct{ e *Engine }

func (w engineSched) schedule(at Time, fn func(Time)) func() bool {
	id := w.e.Schedule(at, ClassDefault, fn)
	return func() bool { return w.e.Cancel(id) }
}
func (w engineSched) now() Time { return w.e.Now() }
func (w engineSched) runAll()   { w.e.RunAll() }

// refEvent / refEngine: the executable spec.
type refEvent struct {
	at        Time
	seq       uint64
	fn        func(Time)
	cancelled bool
	fired     bool
}

type refEngine struct {
	clock     Time
	seq       uint64
	events    []*refEvent
	fired     uint64
	cancelled uint64
}

func (r *refEngine) schedule(at Time, fn func(Time)) func() bool {
	if at < r.clock {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", at, r.clock))
	}
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.events = append(r.events, ev)
	return func() bool {
		if ev.cancelled || ev.fired {
			return false
		}
		ev.cancelled = true
		r.cancelled++
		return true
	}
}

func (r *refEngine) now() Time { return r.clock }

// next returns the earliest live finite event by (at, seq), or nil.
func (r *refEngine) next() *refEvent {
	var best *refEvent
	for _, ev := range r.events {
		if ev.cancelled || ev.fired || ev.at == Forever {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

func (r *refEngine) step() bool {
	ev := r.next()
	if ev == nil {
		return false
	}
	ev.fired = true
	r.fired++
	r.clock = ev.at
	ev.fn(ev.at)
	return true
}

// run fires every live finite event at or before deadline, then moves
// the clock up to a finite deadline.
func (r *refEngine) run(deadline Time) uint64 {
	var n uint64
	for ev := r.next(); ev != nil && ev.at <= deadline; ev = r.next() {
		r.step()
		n++
	}
	if deadline != Forever && r.clock < deadline {
		r.clock = deadline
	}
	return n
}

func (r *refEngine) runAll() { r.run(Forever) }

// advanceTo moves the clock forward to at, reporting false (and leaving
// the clock alone) when that would skip a live finite event.
func (r *refEngine) advanceTo(at Time) bool {
	if at < r.clock {
		return true
	}
	if ev := r.next(); ev != nil && ev.at < at {
		return false
	}
	r.clock = at
	return true
}

// drained reports whether no live event remains, Forever ones included.
func (r *refEngine) drained() bool {
	for _, ev := range r.events {
		if !ev.cancelled && !ev.fired {
			return false
		}
	}
	return true
}

func (r *refEngine) quiescent() bool { return r.next() == nil }

// runWorkload executes one deterministic randomized workload program on s
// and returns the firing trace. Every random draw is keyed to the event's
// own label-forked stream, so the program is a pure function of the seed
// and the scheduler's firing order — identical engines produce identical
// traces; divergent engines diverge visibly.
func runWorkload(s scheduler, seed uint64, roots, depth int) []string {
	var trace []string
	var cancels []func() bool
	root := NewRNG(seed)

	var spawn func(label string, d int) func(Time)
	spawn = func(label string, d int) func(Time) {
		rng := NewRNG(seed).Fork(hashLabel(label))
		return func(now Time) {
			trace = append(trace, fmt.Sprintf("%s@%d", label, now))
			if d <= 0 {
				return
			}
			kids := rng.Intn(3)
			for k := 0; k < kids; k++ {
				var delta Time
				switch rng.Intn(5) {
				case 0:
					delta = 0 // same-instant cascade: FIFO among equals
				case 1:
					delta = Time(rng.Intn(int(shortSpan)))
				case 2:
					delta = Time(rng.Intn(int(longSpan)))
				case 3:
					delta = longSpan + Time(rng.Intn(int(8*longSpan))) // far
				case 4:
					delta = Time(rng.Intn(64)) // dense near-future collisions
				}
				child := fmt.Sprintf("%s.%d", label, k)
				cancels = append(cancels, s.schedule(now+delta, spawn(child, d-1)))
			}
			// Cancel a previously issued handle (possibly already fired,
			// possibly our own descendant, possibly a far-future event).
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		}
	}

	for i := 0; i < roots; i++ {
		at := Time(root.Intn(int(4 * longSpan)))
		cancels = append(cancels, s.schedule(at, spawn(fmt.Sprintf("r%d", i), depth)))
	}
	// A couple of Forever sentinels: they must never fire, and one gets
	// cancelled mid-setup.
	c := s.schedule(Forever, func(Time) { trace = append(trace, "forever-fired!") })
	s.schedule(Forever, func(Time) { trace = append(trace, "forever-fired!") })
	c()
	s.runAll()
	return trace
}

// hashLabel derives a stable fork key from an event label (FNV-1a).
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func TestWheelMatchesReferenceEngine(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		got := runWorkload(engineSched{NewEngine()}, seed, 8, 4)
		want := runWorkload(&refEngine{}, seed, 8, 4)
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at event %d: engine %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestWheelEqualTimestampFIFO pins the determinism contract directly:
// events at one instant fire in schedule order, even when they arrive
// interleaved with other instants and from inside handlers.
func TestWheelEqualTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	const at = 5 * Microsecond
	for i := 0; i < 500; i++ {
		i := i
		e.Schedule(at, ClassDefault, func(Time) { order = append(order, i) })
		// Interleave a different instant so the list holds a mix.
		e.Schedule(at+Nanosecond, ClassDefault, func(Time) {})
	}
	// Same-instant events scheduled from a handler fire after all earlier
	// ones at that instant, still in schedule order.
	e.Schedule(at, ClassDefault, func(now Time) {
		e.Schedule(now, ClassDefault, func(Time) { order = append(order, 1000) })
	})
	e.RunAll()
	if len(order) != 501 {
		t.Fatalf("fired %d ordered events, want 501", len(order))
	}
	for i := 0; i < 500; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d", i, order[i], i)
		}
	}
	if order[500] != 1000 {
		t.Fatalf("in-handler same-instant event fired at position %d", order[500])
	}
}

// TestWheelWindowJumpAndRewind schedules into the gap between the clock
// and a far event after a partial Run: each append lands before the
// list's last event, so the next pop must sort the unconsumed tail.
func TestWheelWindowJumpAndRewind(t *testing.T) {
	e := NewEngine()
	var order []Time
	record := func(now Time) { order = append(order, now) }
	far := 100 * longSpan
	e.Schedule(far, ClassDefault, record)
	e.Schedule(1, ClassDefault, record)
	e.Run(1) // fires the near event; only the far one is left
	// Schedule into the gap — earlier than the far event, later than now.
	e.Schedule(50*longSpan, ClassDefault, record)
	e.Schedule(2, ClassDefault, record)
	e.RunAll()
	want := []Time{1, 2, 50 * longSpan, far}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestLateScheduleBeforeDeepTailIsLinear pins the cost of the queue's
// slow path: an event scheduled before a deep sorted tail (a runner
// milestone with a fine sampler grid pending) makes the next pop merge it
// in with one linear pass, a few percent of the time scheduling the tail
// took. A sort that degrades on this shape (median-of-three quicksort is
// quadratic on it) takes over a hundred times that time, so the test
// bounds the ratio of the two instead of a wall-clock time.
func TestLateScheduleBeforeDeepTailIsLinear(t *testing.T) {
	const depth = 1 << 16
	e := NewEngine()
	fn := func(Time) {}
	start := time.Now()
	for i := 1; i <= depth; i++ {
		e.Schedule(Time(i)*Microsecond, ClassDefault, fn)
	}
	fill := time.Since(start)
	e.Step()
	late := time.Duration(math.MaxInt64)
	for trial := 0; trial < 3; trial++ {
		fired := false
		start = time.Now()
		e.Schedule(e.Now(), ClassDefault, func(Time) { fired = true })
		e.Step()
		late = min(late, time.Since(start))
		if !fired {
			t.Fatalf("trial %d: the late event did not fire before the %d pending ones", trial, e.Pending())
		}
	}
	if late > 20*fill {
		t.Errorf("a late schedule before %d pending events took %v to reach its pop; scheduling all of them took %v", depth, late, fill)
	}
}

// Fuzz program encoding for FuzzEngineDifferential. Each operation is
// one code byte, op | arg<<3, followed by its operands:
//
//	opSchedule  arg%5 picks the regime (fuzzDelay's four, or 4 for
//	            Forever); two magnitude bytes follow
//	opCancel    one byte picks an earlier handle
//	opStep, opRunAll
//	opRun       Run(now+δ); arg%4 and two bytes give δ
//	opAdvance   AdvanceTo(now+δ), likewise; the engine must panic
//	            where the reference reports the advance illegal
const (
	opSchedule byte = iota
	opCancel
	opStep
	opRun
	opRunAll
	opAdvance
	opCount
)

// fuzzDelay decodes a delay in regime k: zero, under shortSpan, under
// longSpan, or a far jump past it, scaled by a two-byte magnitude.
func fuzzDelay(k byte, data []byte) (Time, []byte) {
	var v Time
	if len(data) >= 2 {
		v = Time(data[0])<<8 | Time(data[1])
		data = data[2:]
	} else {
		data = nil
	}
	switch k % 4 {
	case 0:
		return 0, data
	case 1:
		return v % shortSpan, data
	case 2:
		return v * 4, data // < longSpan
	default:
		return longSpan + v<<6, data
	}
}

// fuzzProg builds a fuzz program in the encoding above.
type fuzzProg []byte

func (p fuzzProg) op(op, arg byte, v ...uint16) fuzzProg {
	p = append(p, op|arg<<3)
	for _, x := range v {
		p = append(p, byte(x>>8), byte(x))
	}
	return p
}

func (p fuzzProg) cancel(i byte) fuzzProg { return append(p, opCancel, i) }

// firing is one entry of a fuzz firing trace: which schedule op fired,
// and when.
type firing struct {
	id int
	at Time
}

func runEngineDiff(t *testing.T, data []byte) {
	e, r := NewEngine(), &refEngine{}
	var got, want []firing
	var ids []EventID
	var refCancels []func() bool
	for n := 0; len(data) > 0 && n < 512; n++ {
		code := data[0]
		data = data[1:]
		op, arg := code&7%opCount, code>>3
		var d Time
		switch op {
		case opSchedule:
			d, data = fuzzDelay(arg, data)
			at := e.Now() + d
			if arg%5 == 4 {
				at = Forever
			}
			id := len(ids)
			ids = append(ids, e.Schedule(at, ClassDefault, func(now Time) { got = append(got, firing{id, now}) }))
			refCancels = append(refCancels, r.schedule(at, func(now Time) { want = append(want, firing{id, now}) }))
		case opCancel:
			if len(data) == 0 || len(ids) == 0 {
				continue
			}
			i := int(data[0]) % len(ids)
			data = data[1:]
			if g, w := e.Cancel(ids[i]), refCancels[i](); g != w {
				t.Fatalf("op %d: Cancel(handle %d) = %v, reference %v", n, i, g, w)
			}
		case opStep:
			if g, w := e.Step(), r.step(); g != w {
				t.Fatalf("op %d: Step = %v, reference %v", n, g, w)
			}
		case opRun:
			d, data = fuzzDelay(arg, data)
			deadline := e.Now() + d
			if g, w := e.Run(deadline), r.run(deadline); g != w {
				t.Fatalf("op %d: Run(%v) fired %d, reference %d", n, deadline, g, w)
			}
		case opRunAll:
			if g, w := e.RunAll(), r.run(Forever); g != w {
				t.Fatalf("op %d: RunAll fired %d, reference %d", n, g, w)
			}
		case opAdvance:
			d, data = fuzzDelay(arg, data)
			at := e.Now() + d
			if r.advanceTo(at) {
				e.AdvanceTo(at)
			} else if !panics(func() { e.AdvanceTo(at) }) {
				t.Fatalf("op %d: AdvanceTo(%v) skipped a pending event without panicking", n, at)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("op %d: engine fired %v, reference %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %d: firing %d is %v, reference %v", n, i, got[i], want[i])
			}
		}
		if e.Now() != r.clock || e.Fired() != r.fired || e.Cancelled() != r.cancelled ||
			e.Drained() != r.drained() || e.Quiescent() != r.quiescent() {
			t.Fatalf("op %d: engine Now/Fired/Cancelled/Drained/Quiescent = %v/%d/%d/%v/%v, reference %v/%d/%d/%v/%v",
				n, e.Now(), e.Fired(), e.Cancelled(), e.Drained(), e.Quiescent(),
				r.clock, r.fired, r.cancelled, r.drained(), r.quiescent())
		}
	}
}

func panics(fn func()) (ok bool) {
	defer func() { ok = recover() != nil }()
	fn()
	return false
}

// FuzzEngineDifferential runs decoded operation sequences on the Engine
// and on refEngine and compares the firing trace, Now, Fired, Cancelled,
// Drained and Quiescent after every operation.
func FuzzEngineDifferential(f *testing.F) {
	// An out-of-order schedule after a partial Run.
	f.Add([]byte(fuzzProg{}.
		op(opSchedule, 2, 1000).op(opSchedule, 2, 2000).op(opSchedule, 2, 3000).
		op(opRun, 2, 1500).
		op(opSchedule, 1, 500).op(opSchedule, 0, 0).
		op(opStep, 0).op(opAdvance, 1, 100).op(opRunAll, 0)))
	// Equal times scheduled out of order, more of them than one
	// insertion-sorted run holds, so the sort merges runs: FIFO among
	// ties.
	var ties fuzzProg
	for i := 0; i < 40; i++ {
		ties = ties.op(opSchedule, 2, uint16(2000-1000*(i%2)))
	}
	f.Add([]byte(ties.op(opStep, 0).op(opRunAll, 0)))
	// A descending batch, then 70 cancels: dead slots pass the purge
	// threshold and outnumber the live ones while the list is unsorted.
	var purge fuzzProg
	for i := 0; i < 80; i++ {
		purge = purge.op(opSchedule, 2, uint16(60000-500*(i/2)))
	}
	for i := 0; i < 70; i++ {
		purge = purge.cancel(byte(i))
	}
	f.Add([]byte(purge.op(opSchedule, 1, 7).op(opRun, 2, 45000).op(opRunAll, 0)))
	// A cancelled Forever sentinel, and one left pending.
	f.Add([]byte(fuzzProg{}.
		op(opSchedule, 4, 0).op(opSchedule, 1, 100).cancel(0).
		op(opStep, 0).op(opSchedule, 4, 0).op(opSchedule, 3, 9).
		op(opAdvance, 3, 10).op(opRunAll, 0).op(opAdvance, 2, 5)))
	f.Fuzz(runEngineDiff)
}

// ---------------------------------------------------------------------------
// Allocation guards: the redesign's whole point.
// ---------------------------------------------------------------------------

// TestSteadyStateScheduleZeroAllocs pins 0 allocs/op for the canonical
// hot path: a handler rescheduling itself a few ns out, one Step per op.
func TestSteadyStateScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	cls := e.Class("bench.tick")
	var fn Handler
	fn = func(now Time) { e.Schedule(now+10, cls, fn) }
	e.Schedule(0, cls, fn)
	for i := 0; i < 4096; i++ { // warm the arena, event list, free list
		e.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %.2f/op, want 0", allocs)
	}
}

// TestScheduleCancelZeroAllocs pins 0 allocs/op for a schedule-then-cancel
// round trip once the arena is warm.
func TestScheduleCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	cls := e.Class("bench.cancel")
	fn := func(Time) {}
	for i := 0; i < 4096; i++ {
		e.Cancel(e.Schedule(e.Now()+1000, cls, fn))
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.Cancel(e.Schedule(e.Now()+1000, cls, fn))
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel allocates %.2f/op, want 0", allocs)
	}
}

// TestCancelledEventsDoNotRetainMemory pins the retention fix: a
// schedule/cancel loop must recycle slots instead of growing the arena,
// even with a standing population of live events. The historical bug kept
// every cancelled event queued until its timestamp was reached.
func TestCancelledEventsDoNotRetainMemory(t *testing.T) {
	e := NewEngine()
	cls := e.Class("churn")
	fn := func(Time) {}
	// Standing live population, far in the future.
	for i := 0; i < 32; i++ {
		e.Schedule(10*Millisecond+Time(i), cls, fn)
	}
	for i := 0; i < 200_000; i++ {
		e.Cancel(e.Schedule(e.Now()+Microsecond, cls, fn))
	}
	// Arena is bounded by live + purge threshold + a purge's worth of
	// slack, nowhere near the 200k churned events.
	if got := len(e.events); got > 256 {
		t.Errorf("arena grew to %d slots after 200k schedule/cancel churn, want bounded (<= 256)", got)
	}
	if e.Pending() > 32+purgeThreshold+1 {
		t.Errorf("Pending = %d after churn, want <= live 32 + lazy margin %d", e.Pending(), purgeThreshold+1)
	}
	// The survivors still fire.
	if fired := e.RunAll(); fired != 32 {
		t.Errorf("survivors fired = %d, want 32", fired)
	}
}

// TestCancelSelfInsideHandler pins the cancel-after-pop contract: by the
// time a handler runs, its own ID is stale.
func TestCancelSelfInsideHandler(t *testing.T) {
	e := NewEngine()
	var id EventID
	var got bool
	id = e.Schedule(5, ClassDefault, func(Time) { got = e.Cancel(id) })
	e.RunAll()
	if got {
		t.Error("handler cancelled its own in-flight event; Cancel should report false")
	}
	if e.Cancelled() != 0 {
		t.Errorf("Cancelled = %d, want 0", e.Cancelled())
	}
}

// TestEventIDZeroValueInert pins that the zero EventID never cancels
// anything — including the first event ever scheduled on a fresh engine.
func TestEventIDZeroValueInert(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(1, ClassDefault, func(Time) { fired = true })
	if e.Cancel(EventID{}) {
		t.Error("zero EventID cancelled something")
	}
	e.RunAll()
	if !fired {
		t.Error("first scheduled event never fired")
	}
}
