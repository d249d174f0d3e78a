// Package runner orchestrates the experiment suite: a registry of named
// experiments, a bounded parallel executor that isolates panics and
// enforces per-experiment deadlines, and a structured run manifest for
// observability.
//
// Every experiment in the repository is registered once (ID, description,
// run function); cmd/repro, apusimd and the benchmark suite all
// enumerate the same registry instead of keeping private copies. The
// executor runs experiments concurrently — each on its own independent
// sim.Engine, so no simulation state is ever shared between goroutines —
// but collects and reports results in registration order, which makes the
// printed output byte-identical regardless of the parallelism degree.
package runner

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// Ctx is the per-run context handed to an experiment's run function. Each
// run gets a fresh, private discrete-event engine: the runner stamps
// lifecycle events on it, and experiments may record additional progress
// milestones. The engine's Fired/Pending counters land in the run
// manifest, so an abnormal termination (panic, error) is visible as a
// never-fired completion event. Experiments that want sampled component
// timelines register probes on Telemetry() and arm a sampler with
// ArmSampler.
type Ctx struct {
	id          string
	eng         *sim.Engine
	sampleEvery sim.Time
	telem       *telemetry.Recorder
	spanSample  float64
	spanRec     *spans.Recorder
	aud         *audit.Auditor

	// Interned engine classes for the runner's own lifecycle events,
	// resolved once at construction so the per-event path is integer-only.
	clsMilestone sim.Class
	clsSentinel  sim.Class

	mu         sync.Mutex
	milestones []string
	faults     []string
	degraded   bool
}

func newCtx(id string, opts Options) *Ctx {
	c := &Ctx{id: id, eng: sim.NewEngine(), sampleEvery: opts.SampleEvery, spanSample: opts.SpanSample}
	c.clsMilestone = c.eng.Class("runner.milestone")
	c.clsSentinel = c.eng.Class("runner.sentinel")
	if opts.Audit {
		c.aud = audit.New()
		// Every audited run gets the drain-quiescence check; Platform
		// adds each built platform's ledgers, and experiments register
		// bare components through the audit helpers.
		audit.Engine(c.aud, c.eng)
	}
	return c
}

// Platform builds a platform from spec for this run. It is the one way a
// run builds a platform: the run's span recorder is threaded in when the
// run has made one (Spans was called), and the platform's conservation
// ledgers are registered on the run's auditor. A nil Ctx builds a plain
// platform, so tests and benchmarks share the experiments' code path.
func (c *Ctx) Platform(spec *config.PlatformSpec) (*core.Platform, error) {
	var sp *spans.Recorder
	if c != nil {
		sp = c.spanRec
	}
	p, err := core.NewPlatformWith(spec, core.BuildOptions{Spans: sp})
	if err != nil {
		return nil, err
	}
	p.AttachAudit(c.Auditor())
	return p, nil
}

// Auditor returns the run's invariant auditor: non-nil only when the
// suite ran with Options.Audit, and nil on a nil Ctx. A nil auditor is
// safe to pass anywhere — every audit registration on it is a no-op — so
// experiments register bare components on it unconditionally.
func (c *Ctx) Auditor() *audit.Auditor {
	if c == nil {
		return nil
	}
	return c.aud
}

// ID reports the experiment ID this context belongs to.
func (c *Ctx) ID() string { return c.id }

// Engine returns the run's private discrete-event engine.
func (c *Ctx) Engine() *sim.Engine { return c.eng }

// Milestone records a named progress marker: an event is stamped and
// fired on the run's engine at the current simulated time, so milestones
// appear in the engine's event log without perturbing the simulated
// clock. (An earlier design mapped milestones to wall-clock offsets,
// which made engine time — and therefore every sampled telemetry grid —
// nondeterministic across runs.)
func (c *Ctx) Milestone(name string) {
	at := c.eng.Now()
	c.eng.Schedule(at, c.clsMilestone, func(sim.Time) {})
	c.eng.Run(at)
	c.mu.Lock()
	c.milestones = append(c.milestones, name)
	c.mu.Unlock()
}

// Milestones returns the marker names recorded so far.
func (c *Ctx) Milestones() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.milestones...)
}

// Telemetry returns the run's telemetry recorder, building it on first
// use and attaching its engine profile to the run's engine — so any
// experiment that opts in gets handler-class profiling alongside its
// sampled series, and runs that never call this pay nothing.
func (c *Ctx) Telemetry() *telemetry.Recorder {
	if c.telem == nil {
		c.telem = telemetry.NewRecorder()
		c.telem.ObserveEngine(c.eng)
	}
	return c.telem
}

// SampleEvery reports the run's telemetry sampling cadence: the suite's
// Options.SampleEvery, or the package default when unset.
func (c *Ctx) SampleEvery() sim.Time {
	if c.sampleEvery > 0 {
		return c.sampleEvery
	}
	return telemetry.DefaultCadence
}

// ArmSampler schedules probe snapshots at every SampleEvery grid point up
// to the until horizon on the run's engine, returning the tick count. The
// ticks fire as the experiment advances its engine; the runner's end-of-
// run drain flushes any that remain.
func (c *Ctx) ArmSampler(until sim.Time) int {
	return telemetry.NewSampler(c.eng, c.Telemetry(), c.SampleEvery()).Arm(until)
}

// recorder returns the recorder if the run built one, without creating it.
func (c *Ctx) recorder() *telemetry.Recorder { return c.telem }

// Spans returns the run's span recorder, building it on first use.
// The seed derives only from the experiment ID (FNV-64a), so a run's
// TraceIDs and sampling decisions are identical across suite invocations
// and parallelism degrees. The sampling rate comes from
// Options.SpanSample; runs that never call this pay nothing.
func (c *Ctx) Spans() *spans.Recorder {
	if c.spanRec == nil {
		h := fnv.New64a()
		h.Write([]byte(c.id))
		c.spanRec = spans.NewRecorder(h.Sum64(), c.spanSample)
	}
	return c.spanRec
}

// spanRecorder returns the span recorder if the run built one, without
// creating it.
func (c *Ctx) spanRecorder() *spans.Recorder { return c.spanRec }

// RecordFault notes an injected-fault summary (e.g. "link-down IOD-A<->IOD-B
// at 1µs"). The summaries land in the run's Result and manifest record, so
// a degraded run documents exactly what was done to it.
func (c *Ctx) RecordFault(summary string) {
	c.mu.Lock()
	c.faults = append(c.faults, summary)
	c.mu.Unlock()
}

// Faults returns the injected-fault summaries recorded so far.
func (c *Ctx) Faults() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.faults...)
}

// MarkDegraded flags the run as having completed under injected faults:
// the result reports StatusDegraded instead of StatusOK, which is distinct
// from failure — output is still produced and the suite still passes.
func (c *Ctx) MarkDegraded() {
	c.mu.Lock()
	c.degraded = true
	c.mu.Unlock()
}

// Degraded reports whether MarkDegraded was called.
func (c *Ctx) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// RunFunc produces an experiment's printable output.
type RunFunc func(ctx *Ctx) (string, error)

// Experiment is one registered experiment.
type Experiment struct {
	// ID is the short unique name used on the command line (e.g. "fig20").
	ID string
	// Desc is the one-line description shown by -list.
	Desc string
	// Run regenerates the experiment and returns its printable output.
	Run RunFunc
}

// Registry holds experiments in registration order.
//
// Registration normally happens once at startup from a single goroutine;
// the registry nevertheless locks internally so concurrent enumeration
// (e.g. from benchmarks) is safe.
type Registry struct {
	mu   sync.RWMutex
	list []Experiment
	byID map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]int)}
}

// Register adds an experiment. It rejects empty or duplicate IDs and nil
// run functions.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" {
		return fmt.Errorf("runner: experiment with empty ID (desc %q)", e.Desc)
	}
	if strings.ContainsAny(e.ID, " \t\n") {
		return fmt.Errorf("runner: experiment ID %q contains whitespace", e.ID)
	}
	if e.Run == nil {
		return fmt.Errorf("runner: experiment %q has nil Run", e.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[e.ID]; dup {
		return fmt.Errorf("runner: duplicate experiment ID %q", e.ID)
	}
	r.byID[e.ID] = len(r.list)
	r.list = append(r.list, e)
	return nil
}

// MustRegister is Register, panicking on error. Registration happens at
// startup from static tables, so an error is a programming bug.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Experiments returns the registered experiments in registration order.
func (r *Registry) Experiments() []Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Experiment(nil), r.list...)
}

// Get returns the experiment with the given ID.
func (r *Registry) Get(id string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.byID[id]
	if !ok {
		return Experiment{}, false
	}
	return r.list[i], true
}

// IDs returns the experiment IDs in registration order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, len(r.list))
	for i, e := range r.list {
		ids[i] = e.ID
	}
	return ids
}

// Len reports the number of registered experiments.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.list)
}

// List renders the registry as the -list command output: one
// "id  description" line per experiment, in registration order.
func (r *Registry) List() string {
	var b strings.Builder
	for _, e := range r.Experiments() {
		fmt.Fprintf(&b, "%-8s %s\n", e.ID, e.Desc)
	}
	return b.String()
}

// Clone returns a new registry with the same experiments, for callers
// that want to add ad-hoc entries (e.g. fault injection) without
// mutating the shared registry.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	for _, e := range r.Experiments() {
		c.MustRegister(e)
	}
	return c
}
