package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrWatchdog is the sentinel wrapped by every WatchdogTrip. Callers
// identify watchdog aborts with errors.Is(err, sim.ErrWatchdog).
var ErrWatchdog = errors.New("sim: watchdog tripped")

// WatchdogTrip is the typed error a tripped watchdog raises. The watchdog
// aborts the event loop by panicking with a *WatchdogTrip; the runner's
// panic isolation recovers it and surfaces the run as StatusViolated
// instead of letting the pathology burn the full wall-clock timeout.
type WatchdogTrip struct {
	// Reason is the tripped detector: "livelock", "queue-growth", or
	// "handler-stall".
	Reason string
	// Class is the event class that was executing when the trip fired.
	Class string
	// At is the simulated time of the trip.
	At Time
	// Events is the number of events the watchdog had observed.
	Events uint64
	// Detail describes the exceeded bound.
	Detail string
}

// Error formats the trip for logs and run results.
func (t *WatchdogTrip) Error() string {
	return fmt.Sprintf("%v: %s during %q at %v after %d events: %s",
		ErrWatchdog, t.Reason, t.Class, t.At, t.Events, t.Detail)
}

// Unwrap lets errors.Is(err, ErrWatchdog) match a trip.
func (t *WatchdogTrip) Unwrap() error { return ErrWatchdog }

// Watchdog bounds: generous enough that no legitimate experiment in the
// repository comes near them, tight enough to convert a silent hang into
// a typed error in seconds rather than the full run timeout.
const (
	defaultEventBudget    = 2_000_000
	defaultQueueFactor    = 64
	defaultQueueFloor     = 1 << 16
	defaultMaxHandlerWall = 30 * time.Second
)

// Watchdog detects livelock (event storms with no simulated-time
// progress), runaway queue growth, and single-handler wall-clock stalls.
// Install arms it on an engine, whose dispatch loop then calls it after
// every fired event; a telemetry engine profile is the engine's per-class
// counters (EnableProfiling), which run beside it. NewWatchdog sets its
// bounds from the constants above; only this package's tests lower them.
type Watchdog struct {
	// eventBudget is the maximum number of consecutive events allowed to
	// fire without simulated time advancing (a livelock: components
	// rescheduling each other at the same instant forever).
	eventBudget uint64
	// queueFactor trips when the pending-event queue grows past
	// queueFactor × the baseline high-water mark captured at install time
	// (runaway event fan-out). The baseline is floored at queueFloor so
	// small queues get absolute headroom, not a multiple of almost nothing.
	queueFactor, queueFloor int
	// maxHandlerWall trips when a single handler spends longer than this
	// in wall-clock time. It catches handlers that eventually return after
	// pathological compute; a handler that never returns is beyond any
	// in-process check and remains the runner timeout's job.
	maxHandlerWall time.Duration

	eng      *Engine
	queueMax int
	lastAt   Time
	sameAt   uint64
	events   uint64
}

// NewWatchdog returns a watchdog with the default bounds.
func NewWatchdog() *Watchdog {
	return &Watchdog{
		eventBudget:    defaultEventBudget,
		queueFactor:    defaultQueueFactor,
		queueFloor:     defaultQueueFloor,
		maxHandlerWall: defaultMaxHandlerWall,
	}
}

// Install arms the watchdog on eng. The queue-growth baseline is the
// engine's high-water mark at install time (floored at queueFloor), so a
// platform's construction-time queue depth does not count against the
// budget.
func (w *Watchdog) Install(eng *Engine) {
	w.eng = eng
	base := eng.QueueHighWater()
	if base < w.queueFloor {
		base = w.queueFloor
	}
	w.queueMax = w.queueFactor * base
	w.lastAt = eng.Now()
	eng.watchdog = w
}

// eventDone runs after every fired event: it checks the three bounds and
// panics with a *WatchdogTrip on the first violation. The class handle
// is resolved to a name only on the trip path, so the per-event cost
// stays integer-only.
func (w *Watchdog) eventDone(class Class, at Time, wall time.Duration) {
	w.events++
	if at > w.lastAt {
		w.lastAt = at
		w.sameAt = 0
	} else {
		w.sameAt++
		if w.sameAt >= w.eventBudget {
			w.trip("livelock", class, at, fmt.Sprintf(
				"%d events fired with simulated time stuck at %v (budget %d)",
				w.sameAt, at, w.eventBudget))
		}
	}
	if p := w.eng.Pending(); p > w.queueMax {
		w.trip("queue-growth", class, at, fmt.Sprintf(
			"%d events pending, bound %d (%d× baseline)", p, w.queueMax, w.queueFactor))
	}
	if wall > w.maxHandlerWall {
		w.trip("handler-stall", class, at, fmt.Sprintf(
			"handler ran %v wall-clock, bound %v", wall, w.maxHandlerWall))
	}
}

func (w *Watchdog) trip(reason string, class Class, at Time, detail string) {
	panic(&WatchdogTrip{Reason: reason, Class: w.eng.ClassName(class), At: at, Events: w.events, Detail: detail})
}
