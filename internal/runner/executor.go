package runner

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// Status classifies how an experiment run ended.
type Status string

// Run statuses.
const (
	StatusOK    Status = "ok"
	StatusError Status = "error"
	StatusPanic Status = "panic"
	// StatusDegraded marks a run that completed — produced output, drained
	// its engine — while operating under injected faults. It is distinct
	// from failure: a degraded suite still passes.
	StatusDegraded Status = "degraded"
	// StatusTimeout marks a run that exceeded Options.Timeout. It is a
	// failure status, but retries do not apply — the deadline covers
	// every attempt.
	StatusTimeout Status = "timeout"
	// StatusViolated marks a run aborted by the engine watchdog (livelock,
	// runaway queue growth, handler stall) or — under Options.Strict —
	// failed by audit invariant violations. It is a failure status: the
	// run's answer cannot be trusted, so retries apply.
	StatusViolated Status = "violated"
	// StatusCancelled marks a run stopped by Options.Context: either it
	// never started (the context was already cancelled when its turn
	// came) or its in-flight attempt was abandoned mid-run, the same way
	// a deadline abandons one. It is a failure status, but retries do not
	// apply — a cancelled suite stays cancelled.
	StatusCancelled Status = "cancelled"
)

// Result is the outcome of one experiment run.
type Result struct {
	ID     string
	Desc   string
	Status Status
	// Output is the experiment's printable output (empty on failure).
	Output string
	// Err describes the failure for error/panic/timeout statuses.
	Err error
	// Stack is the panic stack trace, when Status is StatusPanic.
	Stack string
	// Wall is the final attempt's wall-clock duration (the whole
	// deadline, on timeout).
	Wall time.Duration
	// HeapBytes is what the final attempt allocated on the heap, as the
	// delta of the runtime's /gc/heap/allocs:bytes counter (see
	// heapCounter for its grain). The counter is process-wide, so the
	// runner records it only when the suite runs one experiment at a
	// time; it stays zero when runs overlap, and on timeout or
	// cancellation. Like Wall it varies run to run, so the manifest
	// leaves it out.
	HeapBytes uint64
	// EventsFired and EventsPending are the run engine's counters at the
	// end of the run. A clean run drains its queue (EventsPending == 0);
	// a failed run leaves its completion sentinel queued. Both are zero
	// on timeout: the abandoned run still owns its engine.
	EventsFired   uint64
	EventsPending int
	// Milestones are the progress markers the run recorded.
	Milestones []string
	// Attempts is how many times the experiment ran (1 + retries used).
	Attempts int
	// Faults are the injected-fault summaries recorded via Ctx.RecordFault.
	Faults []string
	// Telemetry is the compact sampled-series summary, set only when the
	// run built a recorder via Ctx.Telemetry. It lands in the manifest.
	Telemetry *telemetry.Summary
	// TelemetryDump is the full deterministic columnar store for the same
	// runs, for callers writing CSV/JSON series files.
	TelemetryDump *telemetry.Dump
	// Spans is the run's finished causal-span recorder, set only when the
	// run built one via Ctx.Spans. Its attribution is built before the
	// result is handed over, so readers (the manifest, WriteSpanRuns'
	// on-demand dumps) only read it; nothing records on it afterwards.
	Spans *spans.Recorder
	// Audit is the invariant-audit report, set only when the suite ran
	// with Options.Audit and the run completed far enough to be audited
	// (ok or degraded before auditing). It lands in the manifest.
	Audit *audit.Report
}

// Failed reports whether the run ended abnormally. A degraded run is not a
// failure: it completed under injected faults and produced output.
func (r Result) Failed() bool { return r.Status != StatusOK && r.Status != StatusDegraded }

// SuiteResult is the outcome of a full suite run, in registration order.
type SuiteResult struct {
	Results  []Result
	Wall     time.Duration
	Parallel int
	Timeout  time.Duration
}

// Failed returns the abnormally-ended results, in registration order.
func (s *SuiteResult) Failed() []Result {
	var f []Result
	for _, r := range s.Results {
		if r.Failed() {
			f = append(f, r)
		}
	}
	return f
}

// OK reports whether every experiment completed normally.
func (s *SuiteResult) OK() bool { return len(s.Failed()) == 0 }

// Degraded returns the results that completed under injected faults, in
// registration order.
func (s *SuiteResult) Degraded() []Result {
	var d []Result
	for _, r := range s.Results {
		if r.Status == StatusDegraded {
			d = append(d, r)
		}
	}
	return d
}

// Violated returns the results whose audit report carries violations or
// that were aborted by the watchdog, in registration order.
func (s *SuiteResult) Violated() []Result {
	var v []Result
	for _, r := range s.Results {
		if r.Status == StatusViolated || (r.Audit != nil && !r.Audit.OK()) {
			v = append(v, r)
		}
	}
	return v
}

// WriteOutputs writes each successful experiment's output block, in
// registration order, in the exact format the sequential cmd/repro
// always used. Failed experiments still get their header, followed by a
// one-line failure note, so the suite's shape is stable.
func (s *SuiteResult) WriteOutputs(w io.Writer) error {
	for _, r := range s.Results {
		if err := WriteResult(w, r); err != nil {
			return err
		}
	}
	return nil
}

// WriteResult writes one experiment's output block: the header line,
// then either the output or a one-line failure note.
func WriteResult(w io.Writer, r Result) error {
	if _, err := fmt.Fprintf(w, "\n== %s: %s ==\n", r.ID, r.Desc); err != nil {
		return err
	}
	if r.Failed() {
		_, err := fmt.Fprintf(w, "FAILED (%s): %v\n", r.Status, r.Err)
		return err
	}
	if r.Status == StatusDegraded {
		if _, err := fmt.Fprintf(w, "DEGRADED (%d faults): %s\n", len(r.Faults), strings.Join(r.Faults, "; ")); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, r.Output)
	return err
}

// RunSuite executes the selected experiments on a bounded worker pool.
// Each experiment runs on its own goroutine with its own sim.Engine; a
// panic is recovered into a StatusPanic result and the rest of the suite
// still completes. Results come back in registration order regardless of
// completion order. It returns an error only for invalid options (a
// typed *OptionsError) or an unknown ID in opts.IDs — individual
// experiment failures are reported per-result. Cancelling Options.Context
// converts not-yet-started experiments into StatusCancelled results and
// abandons in-flight attempts; the suite still returns in order.
func (r *Registry) RunSuite(opts Options) (*SuiteResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	exps, err := r.pick(opts.IDs)
	if err != nil {
		return nil, err
	}

	workers := opts.Parallel
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	// Only runs that never overlap can be told apart in the process-wide
	// heap counter.
	measureHeap := workers == 1
	start := time.Now()
	results := make([]Result, len(exps))
	ready := make([]chan struct{}, len(exps))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := opts.ctx().Err(); err != nil {
					results[i] = cancelledResult(exps[i], err)
				} else {
					results[i] = runOne(exps[i], opts, measureHeap)
				}
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := range exps {
			jobs <- i
		}
		close(jobs)
	}()

	// Consume in registration order; stream to the callback as soon as
	// each prefix is complete.
	for i := range exps {
		<-ready[i]
		if opts.OnResult != nil {
			opts.OnResult(results[i])
		}
	}
	wg.Wait()

	return &SuiteResult{
		Results:  results,
		Wall:     time.Since(start),
		Parallel: workers,
		Timeout:  opts.Timeout,
	}, nil
}

// cancelledResult synthesizes the typed result for an experiment the
// suite's context stopped, whether it never started or was abandoned.
func cancelledResult(e Experiment, cause error) Result {
	return Result{
		ID: e.ID, Desc: e.Desc, Status: StatusCancelled,
		Err: fmt.Errorf("cancelled: %w", cause),
	}
}

// runOne executes a single experiment with panic recovery, an optional
// wall-clock deadline, and up to Options.Retries additional attempts on
// failure. Every attempt runs on a completely fresh context and engine, so
// a crashed attempt cannot poison its successor, and starts as soon as its
// predecessor fails: a run is a pure function of its experiment, so there
// is nothing to wait out. The deadline covers all attempts; a timed-out or
// cancelled attempt is never retried. The final attempt's result is
// returned with Attempts counting how many ran. measureHeap records each
// attempt's heap bytes.
func runOne(e Experiment, opts Options, measureHeap bool) Result {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	for attempt := 1; ; attempt++ {
		res := runAttempt(e, opts, deadline, measureHeap)
		res.Attempts = attempt
		if !res.Failed() || res.Status == StatusCancelled || res.Status == StatusTimeout || attempt > opts.Retries {
			return res
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// No time is left for another attempt.
			res = timedOut(e, opts.Timeout)
			res.Attempts = attempt
			return res
		}
	}
}

// runAttempt executes one attempt of an experiment with panic recovery,
// bounded by the experiment's deadline (zero for none). The run happens
// on a fresh goroutine so the deadline — or a cancelled Options.Context —
// can abandon it; an abandoned run keeps its private engine and context,
// so there is no shared state to race on.
func runAttempt(e Experiment, opts Options, deadline time.Time, measureHeap bool) Result {
	// A nil channel never fires: no deadline.
	var expired <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	done := make(chan Result, 1)
	// The experiment label lets a CPU or goroutine profile of a whole
	// suite attribute each sample to the experiment that took it.
	labels := pprof.Labels("experiment", e.ID)
	go pprof.Do(opts.ctx(), labels, func(context.Context) {
		var heap *heapCounter
		var heap0 uint64
		if measureHeap {
			heap = newHeapCounter()
			heap0 = heap.read()
		}
		ctx := newCtx(e.ID, opts)
		res := Result{ID: e.ID, Desc: e.Desc, Status: StatusOK}
		start := time.Now()
		// The watchdog converts silent hangs into a typed abort. The
		// telemetry profile Ctx.Telemetry may arm later is the engine's
		// per-class counters (EnableProfiling), which run beside it.
		sim.NewWatchdog().Install(ctx.eng)
		// A completion sentinel stays queued unless the run finishes
		// cleanly, so EventsPending > 0 flags an abnormal end.
		sentinel := ctx.eng.Schedule(sim.Forever, ctx.clsSentinel, func(sim.Time) {})
		defer func() {
			if p := recover(); p != nil {
				if trip, ok := p.(*sim.WatchdogTrip); ok {
					res.Status = StatusViolated
					res.Err = trip
					res.Output = ""
				} else {
					res.Status = StatusPanic
					res.Err = fmt.Errorf("panic: %v", p)
					res.Stack = string(debug.Stack())
					res.Output = ""
				}
			}
			res.Wall = time.Since(start)
			res.EventsFired = ctx.eng.Fired()
			res.EventsPending = ctx.eng.Pending()
			res.Milestones = ctx.Milestones()
			res.Faults = ctx.Faults()
			// The body's final RunAll has already fired any leftover
			// sampler ticks, so the dump below sees the complete grid.
			if rec := ctx.recorder(); rec != nil {
				res.TelemetryDump = rec.Dump()
				res.Telemetry = rec.Summary()
			}
			if sr := ctx.spanRecorder(); sr != nil {
				// Build the report on the run's goroutine, so readers
				// of the result only read the recorder.
				sr.Attribution()
				res.Spans = sr
			}
			// Last: the body has returned and the result no longer
			// reads the run's components, so their storage can go to
			// the next run. A deadline or cancellation that abandoned
			// this attempt does not get here until the body returns.
			ctx.release()
			if heap != nil {
				res.HeapBytes = heap.read() - heap0
			}
			done <- res
		}()
		ctx.Milestone("start")
		out, err := e.Run(ctx)
		if err != nil {
			res.Status = StatusError
			res.Err = err
			return
		}
		res.Output = out
		if ctx.Degraded() {
			res.Status = StatusDegraded
		}
		ctx.Milestone("done")
		ctx.eng.Cancel(sentinel)
		ctx.eng.RunAll() // reap the cancelled sentinel: a clean run drains
		// Audit at drain: the run completed, so every conservation ledger
		// must balance. Violations fail the run under Strict; otherwise
		// they are recorded as fault summaries and the run continues
		// degraded — visible, but not suite-fatal.
		if rep := ctx.aud.Audit(ctx.eng.Now()); rep != nil {
			res.Audit = rep
			if !rep.OK() {
				if opts.Strict {
					res.Status = StatusViolated
					res.Err = rep.Err()
					res.Output = ""
				} else {
					res.Status = StatusDegraded
					for _, v := range rep.Violations {
						ctx.RecordFault("audit: " + v.String())
					}
				}
			}
		}
	})

	ctx := opts.ctx()
	select {
	case res := <-done:
		return res
	case <-expired:
		return timedOut(e, opts.Timeout)
	case <-ctx.Done():
		return cancelledResult(e, ctx.Err())
	}
}

// heapCounter reads the process's cumulative heap allocation in bytes,
// the runtime's /gc/heap/allocs:bytes. Reading allocates nothing once the
// counter is built, so a delta between two reads does not count the
// reads. The runtime counts a small object when the span holding it
// leaves its allocation cache, so the counter lags by what partly used
// spans hold: a run that allocates a few KiB can read as 0.
type heapCounter [1]metrics.Sample

func newHeapCounter() *heapCounter { return &heapCounter{{Name: "/gc/heap/allocs:bytes"}} }

func (h *heapCounter) read() uint64 {
	metrics.Read(h[:])
	return h[0].Value.Uint64()
}

// timedOut synthesizes the typed result for an experiment that exceeded
// its deadline.
func timedOut(e Experiment, timeout time.Duration) Result {
	return Result{
		ID: e.ID, Desc: e.Desc, Status: StatusTimeout,
		Err:  fmt.Errorf("exceeded %v deadline", timeout),
		Wall: timeout,
	}
}
