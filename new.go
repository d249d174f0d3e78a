package apusim

import (
	"repro/internal/core"
	"repro/internal/ras"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Re-exported observability and fault-injection types, so examples and
// command-line tools never import internal packages.
type (
	// Engine is the discrete-event engine a simulation runs on.
	Engine = sim.Engine
	// Recorder samples named component probes on a simulated-time grid.
	Recorder = telemetry.Recorder
	// Sampler schedules probe snapshots on an engine at a fixed cadence.
	Sampler = telemetry.Sampler
	// FaultPlan is a deterministic RAS fault schedule.
	FaultPlan = ras.Plan
	// FaultInjector arms a FaultPlan against a platform's components.
	FaultInjector = ras.Injector
)

// TelemetrySchema identifies the telemetry series-dump JSON layout.
const TelemetrySchema = telemetry.DumpSchema

// Microsecond is a simulated-time unit, for expressing cadences and
// horizons.
const Microsecond = sim.Microsecond

// NewEngine returns a fresh discrete-event engine at time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRecorder returns an empty telemetry recorder.
func NewRecorder() *Recorder { return telemetry.NewRecorder() }

// NewSampler prepares a sampler that snapshots rec's probes on eng every
// `every` of simulated time (0 selects telemetry's default). Call
// Arm(until) to schedule the ticks.
func NewSampler(eng *Engine, rec *Recorder, every Time) *Sampler {
	return telemetry.NewSampler(eng, rec, every)
}

// ParseFaultPlan decodes and validates a JSON fault plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return ras.ParsePlan(data) }

// New assembles a platform from a product spec: NewMI300A and friends
// are one-line wrappers over it.
func New(spec *PlatformSpec) (*Platform, error) {
	return core.NewPlatform(spec, nil)
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
