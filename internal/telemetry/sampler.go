package telemetry

import "repro/internal/sim"

// DefaultCadence is the sampling interval used when none is configured.
const DefaultCadence = 50 * sim.Microsecond

// SampleClass is the engine handler class of sampler tick events.
const SampleClass = "telemetry.sample"

// Sampler snapshots a Recorder's probes on a sim.Engine at a fixed
// simulated-time cadence.
//
// Ticks land on the absolute grid t = k×every (never at offsets from the
// engine's current Now), so two runs with the same seed and fault plan
// sample at identical instants even if incidental events have nudged their
// clocks differently. Arm schedules a finite grid up to an explicit
// horizon rather than self-rescheduling: an open-ended sampler would keep
// an Engine.RunAll from ever draining.
type Sampler struct {
	eng   *sim.Engine
	rec   *Recorder
	every sim.Time
}

// NewSampler builds a sampler. every <= 0 selects DefaultCadence; the
// chosen cadence is recorded on the recorder so the dump can report it.
func NewSampler(eng *sim.Engine, rec *Recorder, every sim.Time) *Sampler {
	if every <= 0 {
		every = DefaultCadence
	}
	rec.cadence = every
	return &Sampler{eng: eng, rec: rec, every: every}
}

// Arm schedules one tick at every grid point k×every in [Now, until] and
// returns how many were scheduled. The ticks fire as the engine runs; the
// caller advances the engine as usual (the runner's end-of-run drain
// flushes any remainder).
func (s *Sampler) Arm(until sim.Time) int {
	if until == sim.Forever {
		// A grid up to Forever is ~10^14 events; an open horizon is a
		// programming bug, caught like scheduling in the past.
		panic("telemetry: Arm(Forever) — samplers need a finite horizon")
	}
	cls := s.eng.Class(SampleClass)
	first := (s.eng.Now() + s.every - 1) / s.every * s.every
	n := 0
	for t := first; t <= until && t >= first; t += s.every {
		s.eng.Schedule(t, cls, func(now sim.Time) { s.rec.Sample(now) })
		n++
	}
	return n
}
