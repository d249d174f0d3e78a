package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// This file is the daemon's observability plane: per-job trace IDs that
// join the service lifecycle to the simulation's span attribution, a
// flight recorder of recent lifecycle events, lock-free worker-state
// introspection behind GET /v1/debug, and the latency histograms recorded
// at job completion.
//
// Everything here is wall-clock, operator-facing data. None of it may
// leak into manifests, which carry only deterministic simulated-time
// records — that firewall is what keeps cached manifest bytes identical
// across runs, restarts, and parallelism degrees.

// traceIDFor derives a job's trace correlation key: 16 hex digits of
// FNV-64a over the job ID and its spec's content address. The derivation
// is deterministic, so a journal replay rebuilds the exact ID the job
// logged under before the crash without the journal storing it.
func traceIDFor(jobID, key string) string {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}

// FlightEvent is one entry in the flight recorder: a job-lifecycle or
// admission-control event with its wall-clock timestamp and trace
// correlation fields.
type FlightEvent struct {
	// Seq is the event's global sequence number; the recorder overwrites
	// oldest-first, so the surviving window is the Seq-contiguous tail.
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Event  string    `json:"event"`
	Job    string    `json:"job,omitempty"`
	Trace  string    `json:"trace_id,omitempty"`
	Tenant string    `json:"tenant,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// flightRecorder is a fixed-size ring of recent lifecycle events. Writes
// are a sequence-number fetch-add plus one atomic pointer store; reads
// scan the slots without any lock, so the /v1/debug and SIGQUIT dump
// paths never contend with the serving path.
type flightRecorder struct {
	slots []atomic.Pointer[FlightEvent]
	seq   atomic.Uint64
}

func newFlightRecorder(size int) *flightRecorder {
	return &flightRecorder{slots: make([]atomic.Pointer[FlightEvent], size)}
}

// Record stamps and stores one event, overwriting the oldest slot.
func (f *flightRecorder) Record(ev FlightEvent) {
	ev.Seq = f.seq.Add(1)
	ev.At = time.Now().UTC()
	f.slots[int(ev.Seq%uint64(len(f.slots)))].Store(&ev)
}

// Events returns the recorded window in sequence order. A writer racing
// the scan may replace a slot mid-read; the reader sees either the old or
// the new event whole (the pointer swap is atomic), never a torn one.
func (f *flightRecorder) Events() []FlightEvent {
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		if p := f.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// workerState describes what one worker is doing right now. A worker
// publishes a fresh pointer at each stage change and nil when idle, so
// readers get a consistent snapshot without synchronizing with the
// worker.
type workerState struct {
	Job        string
	Trace      string
	Tenant     string
	Experiment string
	Stage      string
	Since      time.Time
}

// setWorker publishes worker i's current state (nil = idle).
func (s *Server) setWorker(i int, ws *workerState) {
	if i >= 0 && i < len(s.workerStates) {
		s.workerStates[i].Store(ws)
	}
}

// WorkerDebug is one worker's row in the /v1/debug snapshot.
type WorkerDebug struct {
	ID         int    `json:"id"`
	Idle       bool   `json:"idle"`
	Job        string `json:"job,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Stage      string `json:"stage,omitempty"`
	// AgeMS is how long the worker has been in its current stage.
	AgeMS int64 `json:"age_ms,omitempty"`
}

// DebugSnapshot is the live-introspection document served by
// GET /v1/debug and dumped on SIGQUIT. Every field is read from atomics,
// channel lengths, or internally synchronized stat structs — never from
// under the server's scheduling mutex — so a wedged serving path can
// still be inspected.
type DebugSnapshot struct {
	Schema        string           `json:"schema"`
	At            time.Time        `json:"at"`
	Draining      bool             `json:"draining"`
	Durability    string           `json:"durability"`
	Workers       []WorkerDebug    `json:"workers"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCapacity int              `json:"queue_capacity"`
	Running       int              `json:"running"`
	JobsTotal     int64            `json:"jobs_total"`
	Cache         CacheStats       `json:"cache"`
	Journal       map[string]int64 `json:"journal,omitempty"`
	Store         map[string]int64 `json:"store,omitempty"`
	Recovery      map[string]int64 `json:"recovery,omitempty"`
	Flight        []FlightEvent    `json:"flight_recorder"`
}

// debugSchema identifies the /v1/debug JSON layout.
const debugSchema = "apusimd-debug/v1"

// DebugSnapshot assembles the introspection document without taking s.mu.
func (s *Server) DebugSnapshot() DebugSnapshot {
	snap := DebugSnapshot{
		Schema:        debugSchema,
		At:            time.Now().UTC(),
		Draining:      s.drainingFlag.Load(),
		Durability:    s.durabilityStateName(),
		Workers:       make([]WorkerDebug, len(s.workerStates)),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		JobsTotal:     s.jobsTotal.Load(),
		Cache:         s.cache.Stats(),
		Flight:        s.flight.Events(),
	}
	now := time.Now()
	for i := range s.workerStates {
		wd := WorkerDebug{ID: i, Idle: true}
		if ws := s.workerStates[i].Load(); ws != nil {
			wd.Idle = false
			wd.Job = ws.Job
			wd.TraceID = ws.Trace
			wd.Tenant = ws.Tenant
			wd.Experiment = ws.Experiment
			wd.Stage = ws.Stage
			if age := now.Sub(ws.Since).Milliseconds(); age > 0 {
				wd.AgeMS = age
			}
			if ws.Stage == "simulating" {
				snap.Running++
			}
		}
		snap.Workers[i] = wd
	}
	if s.journal != nil {
		js := s.journal.Stats()
		snap.Journal = map[string]int64{
			"appends": js.Appends, "syncs": js.Syncs,
			"segments": js.Segments, "checkpoints": js.Checkpoints,
		}
	}
	if s.store != nil {
		ss := s.store.Stats()
		snap.Store = map[string]int64{
			"entries":     int64(ss.Entries),
			"quarantined": int64(ss.Quarantined),
			"pruned":      int64(ss.QuarantinePruned),
		}
	}
	snap.Recovery = map[string]int64{}
	for outcome, v := range s.recovered {
		if n := int64(v.Value()); n > 0 {
			snap.Recovery[outcome] = n
		}
	}
	if len(snap.Recovery) == 0 {
		snap.Recovery = nil
	}
	return snap
}

// handleDebug serves the live-introspection snapshot.
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.DebugSnapshot())
}

// jobTraceSchema identifies the /v1/jobs/{id}/trace JSON layout.
const jobTraceSchema = "apusimd-job-trace/v1"

// jobTrace is the joined trace served by GET /v1/jobs/{id}/trace: the
// service-level lifecycle rendered as a span tree under the job's trace
// ID, plus the simulation-level critical-path attribution lifted from the
// job's manifest. The lifecycle side is synthesized on demand from the
// job's recorded wall-clock transitions; nothing trace-shaped is ever
// added to the manifest itself.
type jobTrace struct {
	Schema    string   `json:"schema"`
	Job       string   `json:"job"`
	TraceID   string   `json:"trace_id"`
	Tenant    string   `json:"tenant,omitempty"`
	State     JobState `json:"state"`
	CacheHit  bool     `json:"cache_hit,omitempty"`
	Coalesced bool     `json:"coalesced,omitempty"`
	// Lifecycle is a spans dump (schema apusim-spans/v1) whose root span
	// carries the job's trace ID; children cover each lifecycle stage in
	// wall-clock nanoseconds mapped onto the span timeline.
	Lifecycle *spans.Dump `json:"lifecycle"`
	// Simulation is the deterministic critical-path attribution from the
	// job's manifest, one entry per experiment that recorded spans.
	Simulation []simAttribution `json:"simulation,omitempty"`
}

type simAttribution struct {
	Experiment  string             `json:"experiment"`
	Attribution *spans.Attribution `json:"attribution"`
}

// lifecycleTrace renders a job's recorded transitions as a span tree
// under its trace ID. Offsets are wall-clock nanoseconds since admission
// carried on the sim.Time axis (1 sim ns per wall ns) purely for reuse of
// the spans wire format; the result is observability data, not a
// simulation artifact.
func lifecycleTrace(st JobStatus) *spans.Dump {
	tid, _ := strconv.ParseUint(st.TraceID, 16, 64)
	rec := spans.NewRecorder(tid, 1)
	if len(st.Transitions) == 0 {
		return rec.Dump()
	}
	base := st.Transitions[0].At
	toSim := func(t time.Time) sim.Time {
		d := t.Sub(base)
		if d < 0 {
			d = 0
		}
		return sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	last := st.Transitions[len(st.Transitions)-1]
	end := time.Now().UTC()
	if last.State.Terminal() {
		end = last.At
	}
	root := rec.RootTraced(spans.TraceID(tid), "job", st.ID, 0)
	root.Annotate("tenant", st.Tenant)
	root.Annotate("state", string(st.State))
	if st.CacheHit {
		root.Annotate("cache_hit", "true")
	}
	if st.Coalesced {
		root.Annotate("coalesced", "true")
	}
	for i, tr := range st.Transitions {
		rec.RecordEvent(toSim(tr.At), "lifecycle", string(tr.State))
		if tr.State.Terminal() {
			continue
		}
		stop := end
		if i+1 < len(st.Transitions) {
			stop = st.Transitions[i+1].At
		}
		root.Child(string(tr.State), string(tr.State), toSim(tr.At), toSim(stop))
	}
	root.Finish(toSim(end))
	return rec.Dump()
}

// simulationAttribution lifts the per-experiment span attribution out of
// stored manifest bytes. The manifest is parsed, never modified: the
// deterministic artifact and the trace view stay strictly separated.
func simulationAttribution(manifest []byte) []simAttribution {
	if len(manifest) == 0 {
		return nil
	}
	var m struct {
		Experiments []struct {
			ID    string             `json:"id"`
			Spans *spans.Attribution `json:"spans"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil
	}
	var out []simAttribution
	for _, e := range m.Experiments {
		if e.Spans != nil {
			out = append(out, simAttribution{Experiment: e.ID, Attribution: e.Spans})
		}
	}
	return out
}

// handleTrace serves the joined lifecycle + simulation trace for one job.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job := s.fetchJob(w, r)
	if job == nil {
		return
	}
	st := job.Status()
	out := jobTrace{
		Schema:     jobTraceSchema,
		Job:        st.ID,
		TraceID:    st.TraceID,
		Tenant:     st.Tenant,
		State:      st.State,
		CacheHit:   st.CacheHit,
		Coalesced:  st.Coalesced,
		Lifecycle:  lifecycleTrace(st),
		Simulation: simulationAttribution(s.manifestOf(job)),
	}
	writeJSON(w, http.StatusOK, out)
}

// latencyFamily names the experiment- and tenant-keyed histogram pair for
// one lifecycle stage.
type latencyFamily struct {
	job, jobHelp, tenant, tenantHelp string
}

// latencyStages fixes the registration order of the latency histogram
// families, so an idle server's /v1/metrics exposition is byte-stable.
var latencyStages = []string{"queue_wait", "run", "e2e"}

// latencyBuckets is the bucket layout of every latency histogram, computed
// once so that observing a latency builds no bounds slice.
var latencyBuckets = telemetry.LatencyBuckets()

var latencyFamilies = map[string]latencyFamily{
	"queue_wait": {
		job:        "apusimd_job_queue_wait_seconds",
		jobHelp:    "Wall-clock time jobs spent admitted but not yet running, by experiment.",
		tenant:     "apusimd_tenant_queue_wait_seconds",
		tenantHelp: "Wall-clock time jobs spent admitted but not yet running, by tenant.",
	},
	"run": {
		job:        "apusimd_job_run_seconds",
		jobHelp:    "Wall-clock simulation time on a worker, by experiment.",
		tenant:     "apusimd_tenant_run_seconds",
		tenantHelp: "Wall-clock simulation time on a worker, by tenant.",
	},
	"e2e": {
		job:        "apusimd_job_e2e_seconds",
		jobHelp:    "Wall-clock admission-to-terminal latency, by experiment.",
		tenant:     "apusimd_tenant_e2e_seconds",
		tenantHelp: "Wall-clock admission-to-terminal latency, by tenant.",
	},
}

// initLatencyHistograms pre-registers every histogram series the server
// can emit for its configured registry, so the /v1/metrics exposition of
// an idle server is identical across restarts, scrapes, and worker-pool
// widths. Tenants other than the default appear when they first complete
// a job (Histogram is get-or-create, so observation never races
// registration).
func (s *Server) initLatencyHistograms() {
	exps := s.cfg.Registry.IDs()
	if s.cfg.FaultPlanRun != nil {
		exps = append(exps, "faultplan")
	}
	for _, stage := range latencyStages {
		f := latencyFamilies[stage]
		for _, id := range exps {
			s.metrics.Histogram(f.job, f.jobHelp, latencyBuckets,
				telemetry.Label{Key: "experiment", Value: id})
		}
		s.metrics.Histogram(f.tenant, f.tenantHelp, latencyBuckets,
			telemetry.Label{Key: "tenant", Value: DefaultTenant})
	}
}

// experimentLabel is the histogram/logging label for a job's target.
func experimentLabel(spec *Spec) string {
	switch {
	case spec == nil:
		return "unknown"
	case spec.FaultPlan != nil:
		return "faultplan"
	default:
		return spec.Experiment
	}
}

// observeStage records one stage duration on the experiment- and
// tenant-keyed histograms.
func (s *Server) observeStage(stage, experiment, tenant string, ns int64) {
	if ns < 0 {
		ns = 0
	}
	sec := float64(ns) / 1e9
	f := latencyFamilies[stage]
	s.metrics.Histogram(f.job, f.jobHelp, latencyBuckets,
		telemetry.Label{Key: "experiment", Value: experiment}).Observe(sec)
	s.metrics.Histogram(f.tenant, f.tenantHelp, latencyBuckets,
		telemetry.Label{Key: "tenant", Value: tenant}).Observe(sec)
}

// observeJobLatency records a terminal job's stage durations from st, a
// status snapshot of job: queue-wait and run time only for jobs that
// actually ran (cache hits and coalesced jobs reuse a result without
// consuming a worker), end-to-end for every completion.
func (s *Server) observeJobLatency(job *Job, st JobStatus) {
	if !st.State.Terminal() {
		return
	}
	exp := experimentLabel(job.spec)
	ran := false
	for _, tr := range st.Transitions {
		if tr.State == JobRunning {
			ran = true
			break
		}
	}
	if ran {
		s.observeStage("queue_wait", exp, job.tenant, st.QueuedNS)
		s.observeStage("run", exp, job.tenant, st.RunNS)
	}
	s.observeStage("e2e", exp, job.tenant, st.E2ENS)
}

// shed records one load-shed 429: the by-reason rejection counter, the
// per-tenant shed counter, a structured log line, and a flight-recorder
// event. Tenant shed counters register lazily (tenant label sets are
// unbounded); s.shedMu keeps the get-or-create race-free.
func (s *Server) shed(tenant, reason string, retryAfter int) {
	s.rejected[reason].Inc()
	key := reason + "\x00" + tenant
	s.shedMu.Lock()
	v := s.tenantSheds[key]
	if v == nil {
		v = s.metrics.Counter("apusimd_tenant_sheds_total",
			"Load-shed 429 responses, by tenant and reason.",
			telemetry.Label{Key: "reason", Value: reason},
			telemetry.Label{Key: "tenant", Value: tenant})
		s.tenantSheds[key] = v
	}
	s.shedMu.Unlock()
	v.Inc()
	s.log.Warn("submission shed",
		"reason", reason, "tenant", tenant, "retry_after_s", retryAfter)
	s.flight.Record(FlightEvent{Event: "shed", Tenant: tenant, Detail: reason})
}

// noteRecovered counts one boot-time recovery outcome and mirrors it into
// the flight recorder and the structured log, so a post-restart debug
// scrape shows exactly what the replay did.
func (s *Server) noteRecovered(job *Job, outcome string) {
	s.recovered[outcome].Inc()
	s.event(job, "recover", outcome, "job recovered", "outcome", outcome)
}

// event writes one job-lifecycle event twice: a flight-recorder entry and
// an info-level log line carrying the job's ID, trace ID and tenant ahead
// of attrs.
func (s *Server) event(job *Job, event, detail, msg string, attrs ...any) {
	s.flight.Record(FlightEvent{Event: event, Job: job.id, Trace: job.traceID,
		Tenant: job.tenant, Detail: detail})
	// A stack array holds the combined arguments, so the log line costs no
	// allocation beyond what slog itself makes.
	var buf [20]any
	args := append(buf[:0], "job_id", job.id, "trace_id", job.traceID, "tenant", job.tenant)
	s.log.Info(msg, append(args, attrs...)...)
}
