package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/sim"
)

// Options configures a suite run. The zero value is not runnable: a suite
// must say how wide its worker pool is (DefaultParallel picks one worker
// per CPU). RunSuite validates the options up front and returns a typed
// *OptionsError for nonsense values instead of silently reinterpreting
// them.
type Options struct {
	// Parallel is the worker-pool size. It must be >= 1; use
	// DefaultParallel() for one worker per CPU.
	Parallel int
	// Timeout is the per-experiment wall-clock deadline, covering every
	// attempt: each retry runs against what is left of it, and a run
	// that exceeds it ends StatusTimeout without further retries. 0
	// disables it; negative deadlines are an error.
	Timeout time.Duration
	// Retries is how many additional attempts a failed experiment gets.
	// Each attempt starts as soon as the previous one fails, on a fresh
	// context and engine — no state leaks from a failed attempt into its
	// successor, and since a run is a pure function of its experiment,
	// waiting before a retry would change nothing. The final attempt's
	// result is reported, with Attempts recording how many ran. Negative
	// counts are an error.
	Retries int
	// IDs restricts the run to a subset (still in registration order);
	// nil runs everything.
	IDs []string
	// Context, when non-nil, cancels the suite: experiments that have not
	// started when it is cancelled never run, and in-flight attempts are
	// abandoned the same way a deadline abandons them. Cancelled runs
	// report StatusCancelled — a typed result, not a hang. Nil means
	// "never cancelled".
	Context context.Context
	// SampleEvery is the telemetry sampling cadence handed to each run's
	// context; 0 selects telemetry.DefaultCadence. It only matters for
	// experiments that call Ctx.Telemetry/ArmSampler. Negative cadences
	// are an error.
	SampleEvery sim.Time
	// SpanSample is the span head-sampling rate handed to each run's
	// context; values outside (0, 1] select 1 (trace every root), but NaN
	// is an error. It only matters for experiments that call Ctx.Spans.
	SpanSample float64
	// OnResult, when set, is called once per experiment in registration
	// order as soon as the result (and all earlier ones) are available,
	// so callers can stream deterministic output while later experiments
	// are still running.
	OnResult func(Result)
	// Audit arms the invariant auditor on every run: each Ctx carries a
	// live audit.Auditor with the engine's drain check, Ctx.Platform
	// registers the ledgers of every platform the run builds, and
	// experiments register bare components on Ctx.Auditor. Completed
	// runs are audited at drain. Violations mark the run degraded (or
	// failed, under Strict) and the report lands in the result and
	// manifest.
	Audit bool
	// Strict makes any audit violation fail the run as StatusViolated
	// instead of recording it and continuing degraded.
	Strict bool
}

// DefaultParallel returns the default worker-pool width: one worker per
// available CPU.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// OptionsError reports an Options field that cannot be run as given. It
// is returned by RunSuite (and Options.Validate) before any experiment
// starts, so a misconfigured suite fails loudly instead of silently
// reinterpreting the bad value.
type OptionsError struct {
	// Field names the offending Options field.
	Field string
	// Value is the rejected value, rendered for the message.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("runner: invalid Options.%s %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options for values that have no sensible meaning:
// a non-positive worker-pool width, negative deadline, negative retry
// budget, negative sampling cadence, or a NaN span rate. It returns a
// typed *OptionsError naming the first offending field, or nil.
func (o Options) Validate() error {
	if o.Parallel <= 0 {
		return &OptionsError{Field: "Parallel", Value: o.Parallel,
			Reason: "worker-pool size must be >= 1 (use DefaultParallel() for one worker per CPU)"}
	}
	if o.Timeout < 0 {
		return &OptionsError{Field: "Timeout", Value: o.Timeout,
			Reason: "per-experiment deadline must be >= 0 (0 disables it)"}
	}
	if o.Retries < 0 {
		return &OptionsError{Field: "Retries", Value: o.Retries,
			Reason: "retry budget must be >= 0"}
	}
	if o.SampleEvery < 0 {
		return &OptionsError{Field: "SampleEvery", Value: o.SampleEvery,
			Reason: "telemetry cadence must be >= 0 (0 selects the default)"}
	}
	if math.IsNaN(o.SpanSample) {
		return &OptionsError{Field: "SpanSample", Value: o.SpanSample,
			Reason: "span sampling rate must be a number (values outside (0, 1] trace everything)"}
	}
	return nil
}

// ctx returns the suite's cancellation context, never nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}
