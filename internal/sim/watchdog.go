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

// WatchdogConfig bounds the three hang pathologies a discrete-event
// simulation can fall into. Zero fields take the defaults below.
type WatchdogConfig struct {
	// EventBudget is the maximum number of consecutive events allowed to
	// fire without simulated time advancing (a livelock: components
	// rescheduling each other at the same instant forever).
	EventBudget uint64
	// QueueFactor trips when the pending-event queue grows past
	// QueueFactor × the baseline high-water mark captured at install time
	// (runaway event fan-out). The baseline is floored at QueueFloor so
	// small queues get absolute headroom, not a multiple of almost nothing.
	QueueFactor int
	// QueueFloor is the minimum baseline for the queue-growth bound.
	QueueFloor int
	// MaxHandlerWall trips when a single handler spends longer than this
	// in wall-clock time. It catches handlers that eventually return after
	// pathological compute; a handler that never returns is beyond any
	// in-process hook and remains the runner timeout's job.
	MaxHandlerWall time.Duration
}

// Watchdog defaults: generous enough that no legitimate experiment in the
// repository comes near them, tight enough to convert a silent hang into
// a typed error in seconds rather than the full run timeout.
const (
	DefaultEventBudget    = 2_000_000
	DefaultQueueFactor    = 64
	DefaultQueueFloor     = 1 << 16
	DefaultMaxHandlerWall = 30 * time.Second
)

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.EventBudget == 0 {
		c.EventBudget = DefaultEventBudget
	}
	if c.QueueFactor <= 0 {
		c.QueueFactor = DefaultQueueFactor
	}
	if c.QueueFloor <= 0 {
		c.QueueFloor = DefaultQueueFloor
	}
	if c.MaxHandlerWall <= 0 {
		c.MaxHandlerWall = DefaultMaxHandlerWall
	}
	return c
}

// Watchdog is an engine Hook that detects livelock (event storms with no
// simulated-time progress), runaway queue growth, and single-handler
// wall-clock stalls. Install attaches it with AddHook; a telemetry engine
// profile is the engine's per-class counters (EnableProfiling), which
// run beside any hook.
type Watchdog struct {
	cfg      WatchdogConfig
	eng      *Engine
	queueMax int
	lastAt   Time
	sameAt   uint64
	events   uint64
}

// NewWatchdog returns a watchdog with cfg's zero fields defaulted.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{cfg: cfg.withDefaults()}
}

// Install arms the watchdog on eng. The queue-growth baseline is the
// engine's high-water mark at install time (floored at QueueFloor), so a
// platform's construction-time queue depth does not count against the
// budget.
func (w *Watchdog) Install(eng *Engine) {
	w.eng = eng
	base := eng.QueueHighWater()
	if base < w.cfg.QueueFloor {
		base = w.cfg.QueueFloor
	}
	w.queueMax = w.cfg.QueueFactor * base
	w.lastAt = eng.Now()
	eng.AddHook(w)
}

// EventDone implements Hook: after every fired event it checks the three
// bounds and panics with a *WatchdogTrip on the first violation. The
// class handle is resolved to a name only on the trip path, so the
// per-event cost stays integer-only.
func (w *Watchdog) EventDone(class Class, at Time, wall time.Duration) {
	w.events++
	if at > w.lastAt {
		w.lastAt = at
		w.sameAt = 0
	} else {
		w.sameAt++
		if w.sameAt >= w.cfg.EventBudget {
			w.trip("livelock", class, at, fmt.Sprintf(
				"%d events fired with simulated time stuck at %v (budget %d)",
				w.sameAt, at, w.cfg.EventBudget))
		}
	}
	if p := w.eng.Pending(); p > w.queueMax {
		w.trip("queue-growth", class, at, fmt.Sprintf(
			"%d events pending, bound %d (%d× baseline)", p, w.queueMax, w.cfg.QueueFactor))
	}
	if wall > w.cfg.MaxHandlerWall {
		w.trip("handler-stall", class, at, fmt.Sprintf(
			"handler ran %v wall-clock, bound %v", wall, w.cfg.MaxHandlerWall))
	}
}

func (w *Watchdog) trip(reason string, class Class, at Time, detail string) {
	panic(&WatchdogTrip{Reason: reason, Class: w.eng.ClassName(class), At: at, Events: w.events, Detail: detail})
}
