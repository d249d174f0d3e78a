// Package sim provides the discrete-event simulation kernel: simulated
// time, a deterministic event engine, seeded random streams and a
// watchdog. The timing models (fabric, HBM, caches, GPU dispatch) compute
// their latencies synchronously and schedule nothing; the events come
// from four schedulers: the runner's milestones and its completion
// sentinel, the RAS fault injector, and the telemetry sampler.
//
// Time is measured in integer picoseconds (type Time) so that link
// serialization delays, cache hit latencies, and multi-GHz clock periods can
// all be expressed exactly without floating-point drift. Events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation in this repository fully deterministic for a given seed.
//
// The event queue is one lazily sorted list (see queue.go) over
// value-typed event slots recycled through a free list, so steady-state
// scheduling allocates nothing. Handler classes are interned Class
// handles (eng.Class("hbm.access") once at setup, integer IDs on the hot
// path).
package sim

import (
	"fmt"
	"time"
)

// Handler is a callback fired when an event's time arrives.
type Handler func(now Time)

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is inert: cancelling it reports false.
type EventID struct {
	idx int32
	gen uint32
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Interned handler classes (see class.go). Slot 0 is ClassDefault.
	classes  []classInfo
	classIdx map[string]Class

	// Event slot arena and free list (see queue.go).
	events []event
	free   []int32

	// Finite events, consumed from head; queue[head:] is sorted by
	// (at, seq) unless unsorted is set. Forever sentinels live apart.
	queue    []int32
	head     int
	unsorted bool
	scratch  []int32 // merge buffer for sorting queue[head:]
	forever  []int32

	liveCount  int // queued, not cancelled (Forever sentinels included)
	liveFinite int // queued, not cancelled, at != Forever
	deadCount  int // cancelled, awaiting reclamation

	fired     uint64
	cancelled uint64
	hwm       int

	watchdog  *Watchdog
	profiling bool
}

// NewEngine returns an engine positioned at time zero with an empty queue
// and ClassDefault pre-interned.
func NewEngine() *Engine {
	return &Engine{
		classes:  []classInfo{{name: DefaultClass}},
		classIdx: map[string]Class{DefaultClass: ClassDefault},
		// Arena slot 0 is a permanent dummy (never allocated, never freed)
		// so the zero EventID{idx: 0} can never match a real event.
		events: make([]event, 1),
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events still queued (including cancelled
// events not yet reaped).
func (e *Engine) Pending() int { return e.liveCount + e.deadCount }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Cancelled reports the total number of events cancelled so far.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// Drained reports whether no live events remain: the queue is empty or
// holds only cancelled events awaiting reclamation (which Pending still
// counts).
func (e *Engine) Drained() bool { return e.liveCount == 0 }

// Quiescent reports whether the engine has reached its natural end state:
// every remaining live event is parked at Forever (sentinels that never
// fire) or the queue is drained entirely. A RunAll that returns with the
// engine non-quiescent left real future work unexecuted — the audit layer
// flags that as a violated drain invariant.
func (e *Engine) Quiescent() bool { return e.liveFinite == 0 }

// QueueHighWater reports the deepest the event queue has ever been
// (including cancelled events not yet reaped).
func (e *Engine) QueueHighWater() int { return e.hwm }

// Schedule queues fn to run at absolute time at under the interned class
// handle (obtain one at setup time with Engine.Class; ClassDefault is
// always valid). Scheduling in the past (before Now) panics: it indicates
// a causality bug in a component model.
func (e *Engine) Schedule(at Time, class Class, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q event at %v before now %v", e.ClassName(class), at, e.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: invariant violated: %q event scheduled with a nil handler", e.ClassName(class)))
	}
	if class < 0 || int(class) >= len(e.classes) {
		panic(fmt.Sprintf("sim: schedule with Class %d not interned on this engine", class))
	}
	e.seq++
	idx := e.alloc()
	ev := &e.events[idx]
	ev.at, ev.seq, ev.fn, ev.class, ev.state = at, e.seq, fn, class, slotQueued
	e.place(idx)
	e.liveCount++
	if at != Forever {
		e.liveFinite++
	}
	if p := e.liveCount + e.deadCount; p > e.hwm {
		e.hwm = p
	}
	return EventID{idx: idx, gen: ev.gen}
}

// Cancel marks a previously scheduled event dead. It returns false if the
// event already fired or was already cancelled. Cancelled Forever
// sentinels are reclaimed immediately; cancelled finite events are
// reclaimed when the dispatch loop passes them or when dead slots
// outnumber live ones (so a schedule/cancel loop cannot grow memory).
func (e *Engine) Cancel(id EventID) bool {
	if id.idx <= 0 || int(id.idx) >= len(e.events) {
		return false
	}
	ev := &e.events[id.idx]
	if ev.state != slotQueued || ev.gen != id.gen {
		return false
	}
	e.cancelled++
	e.liveCount--
	if ev.at != Forever {
		e.liveFinite--
		ev.state = slotDead
		ev.fn = nil
		e.deadCount++
		e.maybePurge()
	} else {
		ev.state = slotDead
		e.cancelForever(id.idx)
	}
	return true
}

// Step executes the single earliest event. It reports false when no
// finite events remain (Forever sentinels never fire).
func (e *Engine) Step() bool {
	idx, ok := e.nextLive()
	if !ok {
		return false
	}
	e.fire(idx)
	return true
}

// fire pops the list head (which nextLive just validated), advances the
// clock, and runs the handler. The slot is reclaimed before the handler
// runs, so a handler cancelling its own in-flight ID sees a stale
// generation and reports false — the historical cancel-after-pop
// contract.
func (e *Engine) fire(idx int32) {
	ev := &e.events[idx]
	at, fn, class := ev.at, ev.fn, ev.class
	if at < e.now {
		panic(fmt.Sprintf("sim: invariant violated: event %q at %v fires before now %v (time moved backwards)", e.ClassName(class), at, e.now))
	}
	e.head++
	e.liveCount--
	e.liveFinite--
	e.reclaim(idx)
	e.now = at
	e.fired++
	if e.watchdog == nil && !e.profiling {
		fn(at)
		return
	}
	start := time.Now()
	fn(at)
	wall := time.Since(start)
	if e.profiling {
		ci := &e.classes[class]
		ci.fired++
		ci.wallNS += wall.Nanoseconds()
	}
	if e.watchdog != nil {
		e.watchdog.eventDone(class, at, wall)
	}
}

// Run executes events until the queue drains or the next event would occur
// after the deadline. It returns the number of events fired. Events exactly
// at the deadline are executed — except events scheduled at Forever, which
// never fire: Forever is a sentinel time ("no deadline"), and an event
// parked there stays pending through any Run, including RunAll. On return,
// Now is advanced to the deadline if the queue drained earlier (so
// back-to-back Run calls compose), except when deadline is Forever, in
// which case Now rests at the last event time.
//
// A deadline earlier than Now is a no-op: Run means "execute everything up
// to at least deadline", which already holds, and the clock never moves
// backwards. AdvanceTo pins the same clamp semantics, so "run to T" and
// "advance to T" are both idempotent. (Scheduling in the past, by
// contrast, stays a panic — that is a causality bug, not a clamp.)
func (e *Engine) Run(deadline Time) uint64 {
	var n uint64
	for {
		idx, ok := e.nextLive()
		if !ok || e.events[idx].at > deadline {
			break
		}
		e.fire(idx)
		n++
	}
	if deadline != Forever && e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunAll executes events until the queue is fully drained.
func (e *Engine) RunAll() uint64 { return e.Run(Forever) }

// AdvanceTo moves the clock forward to at without firing events: "ensure
// Now is at least at". A target earlier than Now is a no-op, matching
// Run's clamp semantics for past deadlines — both operations are
// idempotent and never move the clock backwards. It panics if live events
// earlier than at are still pending, because silently skipping them would
// fire them later with a stale notion of "now".
func (e *Engine) AdvanceTo(at Time) {
	if at < e.now {
		return
	}
	if idx, ok := e.nextLive(); ok && e.events[idx].at < at {
		ev := &e.events[idx]
		panic(fmt.Sprintf("sim: invariant violated: AdvanceTo(%v) would skip a pending %q event at %v", at, e.ClassName(ev.class), ev.at))
	}
	e.now = at
}
