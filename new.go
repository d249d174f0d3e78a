package apusim

import (
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/ras"
	"repro/internal/sim"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// Re-exported observability and fault-injection types, so examples and
// command-line tools never import internal packages.
type (
	// Engine is the discrete-event engine a simulation runs on.
	Engine = sim.Engine
	// Class is an interned handler-class handle: resolve names once at
	// setup with Engine.Class, pass the integer handle on the hot path.
	Class = sim.Class
	// EventID identifies a scheduled event for cancellation.
	EventID = sim.EventID
	// Recorder samples named component probes on a simulated-time grid.
	Recorder = telemetry.Recorder
	// Series is one probe's sampled value column.
	Series = telemetry.Series
	// Sampler schedules probe snapshots on an engine at a fixed cadence.
	Sampler = telemetry.Sampler
	// TelemetryDump is the full deterministic columnar store (JSON/CSV).
	TelemetryDump = telemetry.Dump
	// TelemetrySummary is the compact per-run block embedded in manifests.
	TelemetrySummary = telemetry.Summary
	// FaultPlan is a deterministic RAS fault schedule.
	FaultPlan = ras.Plan
	// FaultInjector arms a FaultPlan against a platform's components.
	FaultInjector = ras.Injector
	// SpanRecorder records causal span trees on the memory and dispatch
	// hot paths, with deterministic head-sampling.
	SpanRecorder = spans.Recorder
	// SpanDump is the full span store in wire form (apusim-spans/v1).
	SpanDump = spans.Dump
	// SpanAttribution is the critical-path latency attribution report.
	SpanAttribution = spans.Attribution
	// Auditor collects runtime conservation-ledger checks and evaluates
	// them at drain; a nil Auditor is inert, so audit wiring is free when
	// auditing is off.
	Auditor = audit.Auditor
	// AuditReport is one drain-time audit evaluation (apusim-audit/v1).
	AuditReport = audit.Report
	// AuditViolation is one failed invariant check inside an AuditReport.
	AuditViolation = audit.Violation
	// WatchdogConfig bounds the engine watchdog's livelock, queue-growth,
	// and handler-stall detectors; the zero value selects defaults.
	WatchdogConfig = sim.WatchdogConfig
	// WatchdogTrip is the typed abort a tripped watchdog raises; it
	// unwraps to ErrWatchdog.
	WatchdogTrip = sim.WatchdogTrip
	// StormSpec bounds the random fault storms RandomFaultPlan draws.
	StormSpec = ras.StormSpec
)

// TelemetrySchema identifies the telemetry series-dump JSON layout.
const TelemetrySchema = telemetry.DumpSchema

// SpansSchema identifies the span-dump JSON layout.
const SpansSchema = spans.DumpSchema

// AuditSchema identifies the audit-report JSON layout.
const AuditSchema = audit.Schema

// Typed error sentinels, re-exported so callers can errors.Is against
// degraded and aborted outcomes without importing internal packages.
var (
	// ErrPartitioned reports that fabric routing found no surviving path.
	ErrPartitioned = fabric.ErrPartitioned
	// ErrNoCompute reports a dispatch onto a partition with no live XCDs.
	ErrNoCompute = gpu.ErrNoCompute
	// ErrWatchdog is the sentinel every WatchdogTrip unwraps to.
	ErrWatchdog = sim.ErrWatchdog
	// ErrAuditViolation is the sentinel a failing AuditReport's Err wraps.
	ErrAuditViolation = audit.ErrViolation
)

// DefaultSampleEvery is the telemetry sampling cadence used when none is
// configured.
const DefaultSampleEvery = telemetry.DefaultCadence

// Simulated-time units, for expressing cadences and horizons.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// ClassDefault is the pre-interned default handler class ("event").
const ClassDefault = sim.ClassDefault

// NewEngine returns a fresh discrete-event engine at time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRecorder returns an empty telemetry recorder.
func NewRecorder() *Recorder { return telemetry.NewRecorder() }

// NewSpanRecorder returns a span recorder whose TraceIDs and sampling
// decisions derive deterministically from seed; rate is the head-sampling
// probability (values outside (0, 1] trace everything).
func NewSpanRecorder(seed uint64, rate float64) *SpanRecorder {
	return spans.NewRecorder(seed, rate)
}

// NewSampler prepares a sampler that snapshots rec's probes on eng every
// `every` of simulated time (0 selects the recorder's cadence, then
// DefaultSampleEvery). Call Arm(until) to schedule the ticks.
func NewSampler(eng *Engine, rec *Recorder, every Time) *Sampler {
	return telemetry.NewSampler(eng, rec, every)
}

// ParseFaultPlan decodes and validates a JSON fault plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return ras.ParsePlan(data) }

// NewAuditor returns an empty invariant auditor. Register a platform's
// ledgers on it with Platform.AttachAudit (and a watchdogged engine's
// drain check yourself if not using the runner); calling Audit evaluates
// every registered check.
func NewAuditor() *Auditor { return audit.New() }

// RandomFaultPlan draws a seed-driven random fault storm within spec's
// bounds; the result always passes Validate. MI300AStormSpec matches the
// platforms the chaos experiments build.
func RandomFaultPlan(seed uint64, spec StormSpec) *FaultPlan { return ras.RandomPlan(seed, spec) }

// MI300AStormSpec is the storm spec for MI300A-shaped platforms: four
// IODs, 128 HBM channels, a six-XCD SPX partition.
func MI300AStormSpec() StormSpec { return ras.MI300AStorm() }

// Option configures platform assembly in New.
type Option func(*core.BuildOptions)

// WithSpans wires rec into the platform's memory and dispatch hot paths:
// every sampled memory transaction and AQL dispatch records a causal span
// tree on it, and armed fault plans annotate it with fault events.
// Platforms built without this option pay nothing on those paths. Spans
// must be threaded in at assembly; everything else attaches to a built
// platform (Platform.Instrument for telemetry probes, ArmFaultPlan for
// faults, Platform.AttachAudit for ledgers).
func WithSpans(rec *SpanRecorder) Option { return func(o *core.BuildOptions) { o.Spans = rec } }

// New assembles a platform from a product spec plus functional options.
// With no options it is exactly the classic constructors: NewMI300A and
// friends are one-line wrappers over it.
func New(spec *PlatformSpec, opts ...Option) (*Platform, error) {
	var bo core.BuildOptions
	for _, o := range opts {
		o(&bo)
	}
	return core.NewPlatformWith(spec, bo)
}

// ArmFaultPlan arms plan against p's fabric, HBM, XCDs, and GPU partition
// on eng — faults are engine events — and returns the injector (its
// Applied log and Errs).
func ArmFaultPlan(p *Platform, eng *Engine, plan *FaultPlan) (*FaultInjector, error) {
	inj := ras.NewInjector(plan)
	targets := ras.Targets{Net: p.Net, HBM: p.HBM, XCDs: p.XCDs, GPU: p.GPU, Spans: p.SpanRecorder()}
	if _, err := inj.Arm(eng, targets); err != nil {
		return nil, err
	}
	return inj, nil
}
