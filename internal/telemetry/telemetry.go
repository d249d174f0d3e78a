// Package telemetry is the deterministic, simulated-time sampling layer:
// components register named probes on a Recorder, a Sampler scheduled on
// the run's sim.Engine snapshots every probe at a fixed simulated-time
// cadence into columnar series, and engine profiling counters (events
// fired per handler class, queue-depth high-water mark, wall-ns per
// handler) land in the same store. The sampled store fans out to a JSON
// series dump (Dump), a compact per-run summary for the run manifest
// (Summary), and the Prometheus exposition of final values
// (WritePromRuns).
//
// Determinism is the design constraint that shapes everything here.
// Samples are taken at absolute simulated-time grid points (multiples of
// the cadence), never at wall-derived offsets, so identical seed + fault
// plan produces byte-identical dumps at any parallelism degree. Handler
// wall time — inherently nondeterministic — is deliberately excluded from
// Dump and surfaces only in Summary, which lives next to the manifest's
// equally nondeterministic wall_ms fields.
package telemetry

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind classifies what a probe's values mean.
type Kind string

// Probe kinds.
const (
	// KindGauge is an instantaneous value (live channels, busy CUs, watts).
	KindGauge Kind = "gauge"
	// KindRate is the per-interval delta of a cumulative counter divided
	// by the interval's simulated seconds (bytes/s, events/s).
	KindRate Kind = "rate"
	// KindOccupancy is a duty cycle or ratio clamped to [0, 1].
	KindOccupancy Kind = "occupancy"
)

// ProbeFunc produces one sample. now is the simulated sampling time and dt
// the simulated time since the previous sample (0 on the first), which
// rate- and ratio-style probes use to difference cumulative counters.
type ProbeFunc func(now, dt sim.Time) float64

type probe struct {
	name   string
	kind   Kind
	fn     ProbeFunc
	values []float64
}

// Series is one probe's sampled column, aligned with the recorder's
// shared timestamp column.
type Series struct {
	Name   string    `json:"name"`
	Kind   Kind      `json:"kind"`
	Values []float64 `json:"values"`
}

// Recorder owns named probes and their columnar sample store. It is not
// safe for concurrent use: a recorder belongs to exactly one run, like
// the sim.Engine it samples on.
type Recorder struct {
	probes  []*probe
	byName  map[string]int
	times   []sim.Time
	cadence sim.Time // the last NewSampler's, reported by the dump
	// eng is the engine ObserveEngine profiles; nil before it is called.
	eng *sim.Engine
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byName: make(map[string]int)}
}

// Register adds a raw probe. Registration order is the column order of
// every sink, so instrumenting code must register deterministically. A
// probe registered after sampling has started is back-filled with zeros
// to keep columns aligned. Empty and duplicate names are rejected.
func (r *Recorder) Register(name string, kind Kind, fn ProbeFunc) error {
	if name == "" {
		return fmt.Errorf("telemetry: probe with empty name")
	}
	if fn == nil {
		return fmt.Errorf("telemetry: probe %q has nil func", name)
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("telemetry: duplicate probe %q", name)
	}
	r.byName[name] = len(r.probes)
	r.probes = append(r.probes, &probe{
		name: name, kind: kind, fn: fn,
		values: make([]float64, len(r.times)),
	})
	return nil
}

// MustRegister is Register, panicking on error. Instrumentation happens at
// platform assembly from static component lists, so an error is a bug.
func (r *Recorder) MustRegister(name string, kind Kind, fn ProbeFunc) {
	if err := r.Register(name, kind, fn); err != nil {
		panic(err)
	}
}

// Gauge registers an instantaneous-value probe.
func (r *Recorder) Gauge(name string, fn func(now sim.Time) float64) {
	r.MustRegister(name, KindGauge, func(now, _ sim.Time) float64 { return fn(now) })
}

// Rate registers a probe that differences a cumulative counter: each
// sample is (counter delta since the previous sample) / (interval
// seconds). The first sample establishes the baseline and reads 0.
func (r *Recorder) Rate(name string, cumulative func() float64) {
	r.MustRegister(name, KindRate, perSecond(cumulative))
}

// Utilization registers an occupancy probe derived from a cumulative
// counter and a capacity: (counter delta / interval) / capacity, clamped
// to [0, 1] — the duty cycle of a link or channel over the interval.
func (r *Recorder) Utilization(name string, capacity float64, cumulative func() float64) {
	rate := perSecond(cumulative)
	r.MustRegister(name, KindOccupancy, func(now, dt sim.Time) float64 {
		v := rate(now, dt)
		if capacity <= 0 {
			return 0
		}
		return clamp01(v / capacity)
	})
}

// perSecond is the probe behind Rate: the growth of cumulative per
// second since the previous sample, 0 on the first.
func perSecond(cumulative func() float64) ProbeFunc {
	prev := math.NaN()
	return func(_, dt sim.Time) float64 {
		cur := cumulative()
		if math.IsNaN(prev) || dt <= 0 {
			prev = cur
			return 0
		}
		v := (cur - prev) / dt.Seconds()
		prev = cur
		return v
	}
}

// Sample snapshots every probe at simulated time now, appending one row to
// the columnar store. Non-finite probe values are recorded as 0 so the
// JSON sinks stay valid.
func (r *Recorder) Sample(now sim.Time) {
	var dt sim.Time
	if n := len(r.times); n > 0 {
		dt = now - r.times[n-1]
	}
	r.times = append(r.times, now)
	for _, p := range r.probes {
		v := p.fn(now, dt)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		p.values = append(p.values, v)
	}
}

// Probes reports how many probes are registered.
func (r *Recorder) Probes() int { return len(r.probes) }

// Times returns the shared timestamp column.
func (r *Recorder) Times() []sim.Time {
	return append([]sim.Time(nil), r.times...)
}

// SeriesByName returns one probe's column, or false if no such probe.
func (r *Recorder) SeriesByName(name string) (Series, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Series{}, false
	}
	p := r.probes[i]
	return Series{Name: p.name, Kind: p.kind, Values: append([]float64(nil), p.values...)}, true
}

// AllSeries returns every probe's column in registration order.
func (r *Recorder) AllSeries() []Series {
	out := make([]Series, len(r.probes))
	for i, p := range r.probes {
		out[i] = Series{Name: p.name, Kind: p.kind, Values: append([]float64(nil), p.values...)}
	}
	return out
}

// ObserveEngine enables the engine's per-class aggregate profiling for
// this recorder, so per-class fired counts, handler wall time, and the
// queue-depth high-water mark land in the same store as the sampled
// series. Profiling is counter-based, so it runs beside the runtime
// watchdog without touching it.
func (r *Recorder) ObserveEngine(eng *sim.Engine) {
	eng.EnableProfiling()
	r.eng = eng
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
