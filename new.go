package apusim

import (
	"fmt"

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
type Option func(*buildConfig)

type buildConfig struct {
	eng         *sim.Engine
	rec         *telemetry.Recorder
	sampleEvery sim.Time
	plan        *ras.Plan
	spanRec     *spans.Recorder
}

// WithEngine attaches the platform's observers to eng: the telemetry
// recorder's engine profile (when WithTelemetry is also given) and the
// fault plan's scheduled events (when WithFaultPlan is given).
func WithEngine(eng *Engine) Option { return func(c *buildConfig) { c.eng = eng } }

// WithTelemetry registers the full platform probe set — fabric link
// utilization, per-stack HBM bandwidth, ECC retries, Infinity Cache hit
// rate, XCD occupancy, power/thermal — on rec during assembly.
func WithTelemetry(rec *Recorder) Option { return func(c *buildConfig) { c.rec = rec } }

// WithSampleEvery records the sampling cadence on the recorder given via
// WithTelemetry; 0 keeps the recorder's existing cadence.
func WithSampleEvery(every Time) Option {
	return func(c *buildConfig) { c.sampleEvery = every }
}

// WithFaultPlan arms plan against the assembled platform's fabric, HBM,
// XCDs, and GPU partition. It requires WithEngine — faults are events,
// and they need an engine to be scheduled on.
func WithFaultPlan(plan *FaultPlan) Option { return func(c *buildConfig) { c.plan = plan } }

// WithSpans wires rec into the platform's memory and dispatch hot paths:
// every sampled memory transaction and AQL dispatch records a causal span
// tree on it, and armed fault plans annotate it with fault events.
// Platforms built without this option pay nothing on those paths.
func WithSpans(rec *SpanRecorder) Option { return func(c *buildConfig) { c.spanRec = rec } }

// New assembles a platform from a product spec plus functional options.
// With no options it is exactly the classic constructors: NewMI300A and
// friends are one-line wrappers over it.
func New(spec *PlatformSpec, opts ...Option) (*Platform, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.plan != nil && cfg.eng == nil {
		return nil, fmt.Errorf("apusim: WithFaultPlan requires WithEngine — faults are scheduled as engine events")
	}
	p, err := core.NewPlatformWith(spec, core.BuildOptions{
		Telemetry: cfg.rec,
		Spans:     cfg.spanRec,
	})
	if err != nil {
		return nil, err
	}
	if cfg.rec != nil {
		if cfg.sampleEvery > 0 {
			cfg.rec.SetCadence(cfg.sampleEvery)
		}
		if cfg.eng != nil {
			cfg.rec.ObserveEngine(cfg.eng)
		}
	}
	if cfg.plan != nil {
		inj := ras.NewInjector(cfg.plan)
		targets := ras.Targets{Net: p.Net, HBM: p.HBM, XCDs: p.XCDs, GPU: p.GPU, Spans: cfg.spanRec}
		if _, err := inj.Arm(cfg.eng, targets); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ArmFaultPlan arms plan against p's components on eng, for callers that
// built the platform first and want the injector back (its Applied log
// and Errs). New's WithFaultPlan covers the common fire-and-forget case.
func ArmFaultPlan(p *Platform, eng *Engine, plan *FaultPlan) (*FaultInjector, error) {
	inj := ras.NewInjector(plan)
	targets := ras.Targets{Net: p.Net, HBM: p.HBM, XCDs: p.XCDs, GPU: p.GPU, Spans: p.SpanRecorder()}
	if _, err := inj.Arm(eng, targets); err != nil {
		return nil, err
	}
	return inj, nil
}
