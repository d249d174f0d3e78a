package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp in picoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond

	// Forever is a sentinel meaning "no deadline".
	Forever Time = math.MaxInt64
)

// Seconds converts t to floating-point seconds, for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds, for reporting.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds converts t to floating-point microseconds, for reporting.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds converts t to floating-point milliseconds, for reporting.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "∞"
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts floating-point seconds to a Time, saturating at
// Forever for non-finite or out-of-range inputs.
func FromSeconds(s float64) Time {
	ps := s * float64(Second)
	if math.IsNaN(ps) || ps >= float64(math.MaxInt64) {
		return Forever
	}
	if ps <= 0 {
		return 0
	}
	return Time(ps)
}
