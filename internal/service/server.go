package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/ras"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config wires a Server's dependencies and limits. Registry is the only
// required field.
type Config struct {
	// Registry supplies the experiments jobs may run.
	Registry *runner.Registry
	// FaultPlanRun executes an ad-hoc fault-plan job (the cmd/repro
	// -faults path). Nil rejects fault-plan specs at submission.
	FaultPlanRun func(*runner.Ctx, *ras.Plan) (string, error)
	// Workers is the worker-pool width; <= 0 selects one per CPU.
	Workers int
	// QueueDepth bounds the admitted-but-not-running backlog; a full
	// queue rejects submissions with 429. <= 0 selects 64.
	QueueDepth int
	// CacheBytes is the result cache's LRU byte budget; <= 0 selects
	// 64 MiB. Set to 1 to effectively disable caching (no manifest fits).
	CacheBytes int64
	// JobTimeout is the per-job wall-clock deadline, retries included;
	// <= 0 selects 2m.
	JobTimeout time.Duration
	// DataDir, when non-empty, makes the server crash-safe: results are
	// persisted to a content-addressed store under this directory and
	// every admission is journaled, so a restart replays interrupted work
	// instead of losing it. Empty keeps the daemon memory-only.
	DataDir string
	// FS is the filesystem the durability layer runs on; nil selects the
	// real one. Tests inject a durable.FaultFS here to exercise every
	// disk-failure branch in-process.
	FS durable.FS
	// RequireDurability refuses submissions with 503 while storage
	// durability is degraded, instead of accepting them as non-durable
	// work. For deployments where an unjournaled 202 is worse than an
	// error.
	RequireDurability bool
	// DurabilityProbe is the cadence at which a degraded server re-tests
	// its data dir and, on success, re-arms durability with a journal
	// checkpoint; <= 0 selects 2s.
	DurabilityProbe time.Duration
	// Logger receives the daemon's structured log records (job lifecycle,
	// admission control, recovery, drain). Nil discards them.
	Logger *slog.Logger

	// watchHeartbeat is the cadence of keep-alive records on ?watch=1
	// streams between state transitions; 0 selects 15s. Only tests
	// shorten it.
	watchHeartbeat time.Duration
}

// flightEvents sizes the flight recorder's ring of recent lifecycle
// events (served by GET /v1/debug, dumped on SIGQUIT).
const flightEvents = 256

// DefaultTenant is the tenant jobs without an X-Tenant header bill to.
const DefaultTenant = "default"

// Server is the simulation-as-a-service daemon core: job store, bounded
// queue, worker pool, result cache, and HTTP API. Construct with New,
// serve Handler(), stop with Drain.
type Server struct {
	cfg   Config
	cache *Cache

	// store and journal are the durability layer; both nil when
	// Config.DataDir is empty. journalClose makes the flush-on-drain
	// idempotent (tests call Drain more than once). fs is the filesystem
	// everything durable runs on (Config.FS or the real one). durability
	// is the storage circuit breaker's state (durabilityNone/OK/Degraded):
	// a journal or store write failure trips it to degraded memory-only
	// mode, and the background probe re-arms it.
	store        *durable.Store
	journal      *durable.Journal
	journalClose sync.Once
	fs           durable.FS
	durability   atomic.Int32
	probeStop    chan struct{}

	metrics        *telemetry.Set
	submitted      *telemetry.Var
	rejected       map[string]*telemetry.Var
	completed      map[JobState]*telemetry.Var
	coalesced      *telemetry.Var
	misses         *telemetry.Var
	recovered      map[string]*telemetry.Var
	journalErrors  *telemetry.Var
	workerPanics   *telemetry.Var
	workerRestarts *telemetry.Var
	shedRetryAfter *telemetry.Var
	degradedTotal  *telemetry.Var
	recoveredDur   *telemetry.Var

	// The observability plane (observe.go): structured logger, flight
	// recorder, per-worker state slots, and the lazily registered
	// per-tenant shed counters. workerStates and the atomics are readable
	// without s.mu, which is what keeps /v1/debug responsive while the
	// serving path is busy or wedged.
	log          *slog.Logger
	flight       *flightRecorder
	workerStates []atomic.Pointer[workerState]
	jobsTotal    atomic.Int64
	drainingFlag atomic.Bool
	shedMu       sync.Mutex
	tenantSheds  map[string]*telemetry.Var

	// testHookJob, when set, runs on a worker just before each job is
	// processed — the seam the supervision tests use to inject panics.
	testHookJob func(*Job)

	mu        sync.Mutex
	draining  bool
	queue     chan *Job
	jobs      map[string]*Job
	order     []string
	seq       int
	boot      int               // boot generation, carried by job IDs (see openDurable)
	leaders   map[string]*Job   // content key → in-flight cacheable run
	followers map[string][]*Job // content key → jobs coalesced onto it
	running   int
	// pendingEnqueue counts fresh admissions that have left the depth
	// check but not yet pushed onto the queue: the WAL fsync now happens
	// between the two (an admission must be durable before its 202, and
	// a failed fsync must be able to un-admit), so the reservation keeps
	// the channel send non-blocking and the depth bound exact.
	pendingEnqueue int

	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup
	mux       *http.ServeMux
}

// New validates the config, builds the server, and starts its worker
// pool. The returned server is live: Handler() can be mounted and jobs
// submitted immediately. Call Drain to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("service: Config.Registry is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runner.DefaultParallel()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.watchHeartbeat <= 0 {
		cfg.watchHeartbeat = 15 * time.Second
	}
	if cfg.DurabilityProbe <= 0 {
		cfg.DurabilityProbe = 2 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = durable.OS()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:          cfg,
		cache:        NewCache(cfg.CacheBytes),
		jobs:         make(map[string]*Job),
		leaders:      make(map[string]*Job),
		followers:    make(map[string][]*Job),
		log:          cfg.Logger,
		flight:       newFlightRecorder(flightEvents),
		workerStates: make([]atomic.Pointer[workerState], cfg.Workers),
		tenantSheds:  make(map[string]*telemetry.Var),
		fs:           cfg.FS,
		probeStop:    make(chan struct{}),
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	s.initMetrics()
	// Recovery runs before the queue exists and before any worker starts:
	// the journal is replayed into job records, and jobs that were queued
	// at the crash come back as a requeue list.
	requeue, err := s.openDurable()
	if err != nil {
		return nil, err
	}
	// The queue is sized so replayed jobs never block the constructor even
	// when more jobs were pending at the crash than QueueDepth allows;
	// fresh admissions are checked against cfg.QueueDepth, not cap().
	s.queue = make(chan *Job, cfg.QueueDepth+len(requeue))
	for _, job := range requeue {
		s.queue <- job
	}
	s.initMux()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	if s.journal != nil {
		// The durability loop owns the recovery probe (re-arming a
		// degraded server); it exits when Drain closes probeStop.
		s.wg.Add(1)
		go s.durabilityLoop()
	}
	return s, nil
}

// initMetrics registers the service-level counter set served by
// GET /v1/metrics. Queue, cache, and occupancy values are Func metrics
// read at scrape time from their owning structures.
func (s *Server) initMetrics() {
	m := telemetry.NewSet()
	s.metrics = m
	s.submitted = m.Counter("apusimd_jobs_submitted_total",
		"Jobs accepted for processing, including cache hits and coalesced jobs.")
	s.rejected = map[string]*telemetry.Var{}
	for _, reason := range []string{"queue_full", "draining", "invalid", "durability"} {
		s.rejected[reason] = m.Counter("apusimd_jobs_rejected_total",
			"Submissions refused at admission, by reason.",
			telemetry.Label{Key: "reason", Value: reason})
	}
	s.completed = map[JobState]*telemetry.Var{}
	for _, st := range []JobState{JobOK, JobDegraded, JobViolated, JobFailed, JobCancelled, JobTimeout} {
		s.completed[st] = m.Counter("apusimd_jobs_completed_total",
			"Jobs that reached a terminal state, by state.",
			telemetry.Label{Key: "state", Value: string(st)})
	}
	m.CounterFunc("apusimd_cache_hits_total",
		"Submissions served verbatim from the stored result cache.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	s.coalesced = m.Counter("apusimd_cache_coalesced_total",
		"Submissions that waited on an identical in-flight run instead of re-simulating.")
	s.misses = m.Counter("apusimd_cache_misses_total",
		"Cache-participating submissions that required a fresh simulation.")
	m.CounterFunc("apusimd_cache_evictions_total",
		"Cache entries evicted to hold the LRU byte budget.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	m.GaugeFunc("apusimd_cache_bytes",
		"Bytes of manifests currently resident in the result cache.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	m.GaugeFunc("apusimd_cache_entries",
		"Manifests currently resident in the result cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	m.GaugeFunc("apusimd_queue_depth",
		"Jobs admitted and waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	m.GaugeFunc("apusimd_jobs_running",
		"Jobs currently simulating on workers.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.running)
		})
	s.recovered = map[string]*telemetry.Var{}
	for _, outcome := range []string{"requeued", "interrupted", "from_cache", "completed", "failed"} {
		s.recovered[outcome] = m.Counter("apusimd_recovered_jobs_total",
			"Jobs rebuilt from the journal at startup, by recovery outcome.",
			telemetry.Label{Key: "outcome", Value: outcome})
	}
	m.CounterFunc("apusimd_cache_disk_hits_total",
		"Cache hits served from the durable store after a memory miss.",
		func() float64 { return float64(s.cache.Stats().DiskHits) })
	m.CounterFunc("apusimd_cache_quarantined_total",
		"Durable cache entries quarantined after failing verification.",
		func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.Stats().Quarantined)
		})
	m.GaugeFunc("apusimd_store_entries",
		"Verified entries resident in the durable store.",
		func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.Stats().Entries)
		})
	m.CounterFunc("apusimd_journal_appends_total",
		"Records appended to the job journal.",
		func() float64 {
			if s.journal == nil {
				return 0
			}
			return float64(s.journal.Stats().Appends)
		})
	m.CounterFunc("apusimd_journal_syncs_total",
		"fsync batches flushed to the job journal (group commit).",
		func() float64 {
			if s.journal == nil {
				return 0
			}
			return float64(s.journal.Stats().Syncs)
		})
	s.journalErrors = m.Counter("apusimd_journal_errors_total",
		"Journal appends or syncs that failed (jobs still ran, durability degraded).")
	m.GaugeFunc("apusimd_journal_segments",
		"Journal segment files currently on disk.",
		func() float64 {
			if s.journal == nil {
				return 0
			}
			return float64(s.journal.Stats().Segments)
		})
	m.CounterFunc("apusimd_journal_checkpoints_total",
		"Journal compactions: the live record set rewritten into a fresh segment.",
		func() float64 {
			if s.journal == nil {
				return 0
			}
			return float64(s.journal.Stats().Checkpoints)
		})
	m.CounterFunc("apusimd_store_put_errors_total",
		"Durable store writes that failed to reach disk.",
		func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.Stats().PutErrors)
		})
	m.CounterFunc("apusimd_store_quarantined_pruned_total",
		"Quarantined entries deleted to keep the quarantine dir bounded.",
		func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.Stats().QuarantinePruned)
		})
	m.GaugeFunc("apusimd_durability_armed",
		"1 while admissions are journaled durably; 0 in degraded or memory-only mode.",
		func() float64 {
			if s.durability.Load() == durabilityOK {
				return 1
			}
			return 0
		})
	s.degradedTotal = m.Counter("apusimd_durability_degraded_total",
		"Times a storage failure tripped the server into degraded memory-only mode.")
	s.recoveredDur = m.Counter("apusimd_durability_recovered_total",
		"Times the background probe re-armed durability after degradation.")
	s.workerPanics = m.Counter("apusimd_worker_panics_total",
		"Panics that escaped a job and were isolated by the worker supervisor.")
	s.workerRestarts = m.Counter("apusimd_worker_restarts_total",
		"Worker loops respawned after a panic escaped job isolation.")
	s.shedRetryAfter = m.Gauge("apusimd_shed_retry_after_seconds",
		"Retry-After advised on the most recent load-shed 429 response.")
	s.initLatencyHistograms()
}

// Metrics exposes the server's counter set (tests and embedders).
func (s *Server) Metrics() *telemetry.Set { return s.metrics }

// CacheStats exposes the result cache's counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// worker is the self-healing worker loop: it drains the job queue until
// Drain closes it, and if a panic ever escapes per-job isolation it
// respawns the drain loop instead of silently shrinking the pool.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for {
		if s.drainJobs(id) {
			return
		}
		s.workerRestarts.Inc()
		s.log.Error("worker restarted after an escaped panic", "worker", id)
	}
}

// drainJobs processes queued jobs until the queue closes (returning
// true) or a panic escapes processJob's own isolation (returning false
// so the worker respawns it).
func (s *Server) drainJobs(id int) (clean bool) {
	defer func() {
		if p := recover(); p != nil {
			s.workerPanics.Inc()
			s.setWorker(id, nil)
			clean = false
		}
	}()
	for job := range s.queue {
		s.processJob(id, job)
	}
	return true
}

// processJob runs one job on this worker. A panic inside the job path
// fails the job rather than the worker; a worker that picks up a job
// after a forced shutdown cancels it instead of simulating. The worker's
// state slot tracks which job and stage it is on for /v1/debug.
func (s *Server) processJob(id int, job *Job) {
	defer s.setWorker(id, nil)
	defer func() {
		if p := recover(); p != nil {
			s.workerPanics.Inc()
			s.log.Error("job panicked on worker",
				"worker", id, "job_id", job.id, "trace_id", job.traceID,
				"tenant", job.tenant, "panic", fmt.Sprint(p))
			s.finishJob(job, JobFailed, nil, fmt.Sprintf("worker panic: %v", p), 0)
		}
	}()
	exp := experimentLabel(job.spec)
	s.setWorker(id, &workerState{
		Job: job.id, Trace: job.traceID, Tenant: job.tenant,
		Experiment: exp, Stage: "starting", Since: time.Now().UTC(),
	})
	if hook := s.testHookJob; hook != nil {
		hook(job)
	}
	if err := s.runCtx.Err(); err != nil {
		s.finishJob(job, JobCancelled, nil, "cancelled: shutdown before the job ran", 0)
		return
	}
	// The start record must be durable before the simulation begins:
	// if this job is what crashes the process, replay sees the start and
	// parks the job as interrupted instead of re-running it at boot — the
	// guard against a poisoned spec crash-looping the daemon. It is
	// durable before the job shows as running, too, as finishJob's done
	// records are before a job shows as finished.
	start := &durable.Record{Op: durable.OpStart, Job: job.id}
	s.mu.Lock()
	job.pending = start
	s.mu.Unlock()
	s.journalAppendSync(*start)
	job.setState(JobRunning)
	s.event(job, "start", exp, "job started", "worker", id, "experiment", exp)
	var res runner.Result
	var manifest []byte
	func() {
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		s.setWorker(id, &workerState{
			Job: job.id, Trace: job.traceID, Tenant: job.tenant,
			Experiment: exp, Stage: "simulating", Since: time.Now().UTC(),
		})
		// The occupancy gauge must come back down even if the simulation
		// panics out of this frame (the outer recover fails the job).
		defer func() {
			s.setWorker(id, nil)
			s.mu.Lock()
			s.running--
			s.mu.Unlock()
		}()
		res, manifest = s.simulate(job)
	}()
	errMsg := ""
	if res.Err != nil {
		errMsg = res.Err.Error()
	}
	s.finishJob(job, stateForStatus(res.Status), manifest, errMsg, res.Attempts)
}

// simulate runs one job on the runner — per-job engine, panic isolation,
// watchdog, deadline, retries — and renders its manifest. Wall-clock
// durations are zeroed before rendering: the manifest a service job
// returns is the deterministic simulated-time record, byte-identical for
// every run of the same normalized spec, which is what makes it cacheable
// under a content address.
func (s *Server) simulate(job *Job) (runner.Result, []byte) {
	spec := job.spec.normalized()
	reg := s.cfg.Registry
	id := spec.Experiment
	if spec.FaultPlan != nil {
		plan := spec.FaultPlan
		reg = runner.NewRegistry()
		reg.MustRegister(runner.Experiment{
			ID:   "faultplan",
			Desc: fmt.Sprintf("ad-hoc RAS fault plan (%d faults, seed %d)", len(plan.Faults), plan.Seed),
			Run: func(ctx *runner.Ctx) (string, error) {
				return s.cfg.FaultPlanRun(ctx, plan)
			},
		})
		id = "faultplan"
	}
	// The job's one wall-clock deadline covers every attempt; the spec's
	// timeout_ms may only tighten the server default.
	timeout := s.cfg.JobTimeout
	if d := time.Duration(spec.TimeoutMS) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	opts := runner.Options{
		Parallel:    1,
		IDs:         []string{id},
		Timeout:     timeout,
		Retries:     spec.Retries,
		Context:     s.runCtx,
		SampleEvery: sim.Time(spec.SampleNS) * sim.Nanosecond,
		SpanSample:  1,
		Audit:       spec.Audit,
		Strict:      spec.Strict,
	}
	if spec.Spans {
		opts.SpanSample = spec.SpanSample
	}
	suite, err := reg.RunSuite(opts)
	if err != nil {
		return runner.Result{ID: id, Status: runner.StatusError, Err: err, Attempts: 1}, nil
	}
	suite.Wall = 0
	for i := range suite.Results {
		suite.Results[i].Wall = 0
	}
	var buf bytes.Buffer
	if err := runner.BuildManifest(suite).WriteJSON(&buf); err != nil {
		return runner.Result{ID: id, Status: runner.StatusError, Err: err, Attempts: 1}, nil
	}
	return suite.Results[0], buf.Bytes()
}

// stateForStatus maps a runner status onto the job lifecycle.
func stateForStatus(st runner.Status) JobState {
	switch st {
	case runner.StatusOK:
		return JobOK
	case runner.StatusDegraded:
		return JobDegraded
	case runner.StatusViolated:
		return JobViolated
	case runner.StatusCancelled:
		return JobCancelled
	case runner.StatusTimeout:
		return JobTimeout
	default: // error, panic
		return JobFailed
	}
}

// cacheable reports whether a terminal state's manifest may be stored
// and reused. Only completed runs qualify: failures may be transient
// (timeouts, panics) and cancellations are shutdown artifacts.
func cacheable(state JobState) bool { return state == JobOK || state == JobDegraded }

// finishJob records a queue job's terminal outcome: stores the manifest
// under the job's content address, completes the job, and completes every
// coalesced follower with the same result.
func (s *Server) finishJob(job *Job, state JobState, manifest []byte, errMsg string, attempts int) {
	s.mu.Lock()
	var fols []*Job
	if !job.spec.NoCache {
		if s.leaders[job.key] == job {
			delete(s.leaders, job.key)
			fols = s.followers[job.key]
			delete(s.followers, job.key)
		}
		if cacheable(state) && manifest != nil {
			s.cache.Put(job.key, Entry{State: state, Manifest: manifest, Attempts: attempts})
		}
	}
	done := append([]*Job{job}, fols...)
	recs := make([]durable.Record, len(done))
	for i, j := range done {
		recs[i] = durable.Record{Op: durable.OpDone, Job: j.id, State: string(state), Attempts: attempts}
		j.pending = &recs[i]
	}
	s.mu.Unlock()

	// The done records reach the journal before the terminal state
	// becomes visible, so a client that sees a job finish can rely on its
	// done record surviving a crash. A checkpoint taken in between writes
	// the pending records itself. They share one group commit, outside
	// s.mu.
	for _, rec := range recs {
		s.journalAppend(rec)
	}
	s.journalSync()
	for _, j := range done {
		// Counted before publishing too, so a client that sees the job
		// finish also sees it in the completion counters.
		s.completed[state].Add(1)
		j.finish(state, manifest, errMsg, attempts)
		st := j.Status()
		s.observeJobLatency(j, st)
		s.event(j, "finish", string(state), "job finished",
			"state", string(state), "attempts", attempts, "error", errMsg, "coalesced", j != job,
			"queued_ns", st.QueuedNS, "run_ns", st.RunNS, "e2e_ns", st.E2ENS)
	}
}

// Drain stops the server gracefully: new submissions are refused with
// 503, already-admitted jobs run to completion, and the call returns when
// the pool is idle. If ctx expires first, the drain turns forced — the
// shared run context is cancelled, in-flight attempts are abandoned with
// typed cancelled results, still-queued jobs are cancelled without
// running — and the ctx error is returned after the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.drainingFlag.Store(true)
		close(s.queue)
		close(s.probeStop) // stops the durability loop so wg.Wait can finish
		s.log.Info("drain started", "queued", len(s.queue))
		s.flight.Record(FlightEvent{Event: "drain"})
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeJournal()
		return nil
	case <-ctx.Done():
		s.cancelRun()
		<-done
		s.closeJournal()
		return ctx.Err()
	}
}

// closeJournal flushes and closes the journal once the pool is idle, so
// buffered done records reach disk before the process exits. A graceful
// drain leaves mostly terminal jobs, so the journal is first checkpointed
// down to the (usually empty) live set — the next boot replays a handful
// of records instead of the whole run history.
func (s *Server) closeJournal() {
	s.journalClose.Do(func() {
		if s.journal == nil {
			return
		}
		if s.durabilityOKNow() {
			s.mu.Lock()
			recs := s.checkpointRecords()
			err := s.journal.Checkpoint(recs)
			s.mu.Unlock()
			if err != nil {
				s.journalErrors.Inc()
			}
		}
		if err := s.journal.Close(); err != nil {
			s.journalErrors.Inc()
		}
	})
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// jsonWriter is a response buffer with an indenting encoder bound to it,
// pooled so a response costs neither an encoder nor its indent buffer.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// maxPooledJSON is the largest buffer writeJSON returns to the pool, so
// one large /v1/jobs listing is not retained.
const maxPooledJSON = 64 << 10

// writeJSON writes v as an indented JSON response. The body goes out in
// one Write, as an encoder writing to w directly would send it; a value
// that fails to encode sends an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	_ = jw.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(jw.buf.Bytes()) // a failed write means the client has gone
	if jw.buf.Cap() <= maxPooledJSON {
		jsonWriters.Put(jw)
	}
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBytes bounds a submission body; fault plans are small.
const maxSpecBytes = 1 << 20

// initMux installs the HTTP API.
func (s *Server) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/debug", s.handleDebug)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux = mux
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// handleSubmit admits one job. The spec is parsed and validated, then
// placeLocked decides where the job goes: it finishes from the stored
// result (200), waits on an identical in-flight run, or takes a queue
// slot under admission control (both 202). Every refusal goes through
// refuse.
//
// Fresh and coalesced admissions share one durable sequence: the submit
// record is appended under s.mu, fsynced with s.mu released (the fsync is
// the slowest step on the submit path), and after re-locking the
// admission is either rolled back with a 503 or enqueued and
// acknowledged — never a 202 for an admission the journal does not hold.
// A submission that is not journaled (memory-only, or durability
// degraded) never leaves s.mu, so a duplicate cannot slip in between its
// placement and its leader claim.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = DefaultTenant
	}
	spec, ref := s.parseSubmission(r)
	if ref.code != 0 {
		s.refuse(w, tenant, ref)
		return
	}
	key := spec.Hash()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.refuse(w, tenant, refuseDraining)
		return
	}
	place, stored := s.placeLocked(spec, key, s.cache.Get)
	if place == placeStored {
		job := s.newJobLocked(tenant, spec, key)
		job.cacheHit = true
		s.mu.Unlock()
		s.submitted.Inc()
		job.finish(stored.State, stored.Manifest, "", stored.Attempts)
		s.completed[stored.State].Add(1)
		st := job.Status()
		s.observeJobLatency(job, st)
		s.event(job, "cache_hit", experimentLabel(spec), "job served from cache",
			"experiment", experimentLabel(spec), "state", string(stored.State))
		writeJSON(w, http.StatusOK, st)
		return
	}
	if ref := s.admissionRefusalLocked(place); ref.code != 0 {
		s.mu.Unlock()
		s.refuse(w, tenant, ref)
		return
	}
	job := s.newJobLocked(tenant, spec, key)
	if place == placeCoalesce {
		s.followLocked(job)
	} else {
		// The queue slot is reserved now (pendingEnqueue keeps the later
		// channel send non-blocking and the depth bound exact); the leader
		// slot is claimed only once the admission is durable.
		s.pendingEnqueue++
	}
	journaled := s.journal != nil && s.durabilityOKNow()
	if s.journal != nil && !journaled {
		job.markNonDurable()
	}
	// The 202 reports the admission itself: rendered after the job is
	// queued, a fast job could already answer with its terminal state.
	st := job.Status()
	var err error
	if journaled {
		// Appended before the job is reachable via the queue, so the submit
		// record always precedes the worker's start record. It goes to the
		// journal directly, not via journalAppend: a failure must roll the
		// admission back, never silently degrade it after a 202.
		err = s.journal.Append(s.submitRecord(job))
		s.mu.Unlock()
		if err == nil {
			err = s.journal.Sync()
		}
		if err != nil {
			s.journalErrors.Inc()
			s.tripDurability("submit journal write", err)
		}
		s.mu.Lock()
	}
	if place == placeLead {
		s.pendingEnqueue--
	}
	switch {
	case err != nil && (place == placeLead || !job.currentState().Terminal()):
		// A follower whose leader finished during the fsync holds a real
		// result, so it stays admitted; any other failed write rolls back.
		ref = refusal{code: http.StatusServiceUnavailable, reason: "durability", retryAfter: 1,
			msg: fmt.Sprintf("could not journal the admission durably: %v", err)}
	case place == placeLead && s.draining:
		// Drain began during the fsync and closed the queue channel.
		ref = refuseDraining
	}
	if ref.code != 0 {
		s.unadmitLocked(job, place)
		s.mu.Unlock()
		s.refuse(w, tenant, ref)
		return
	}
	if place == placeLead {
		s.claimLeaderLocked(job)
		s.queue <- job // cannot block: slot reserved via pendingEnqueue under s.mu
	}
	s.mu.Unlock()
	s.submitted.Inc()
	event := "submit"
	if place == placeCoalesce {
		s.coalesced.Inc()
		event = "coalesce"
	} else if !spec.NoCache {
		s.misses.Inc()
	}
	s.event(job, event, experimentLabel(spec), "job admitted",
		"experiment", experimentLabel(spec), "spec_hash", key,
		"coalesced", place == placeCoalesce, "durability", s.durabilityStateName())
	writeJSON(w, http.StatusAccepted, st)
}

// parseSubmission reads and validates a submission body. A refusal with a
// non-zero code rejects it before admission.
func (s *Server) parseSubmission(r *http.Request) (*Spec, refusal) {
	invalid := func(code int, format string, args ...any) (*Spec, refusal) {
		return nil, refusal{code: code, reason: "invalid", msg: fmt.Sprintf(format, args...)}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		return nil, refusal{code: http.StatusBadRequest, msg: fmt.Sprintf("reading body: %v", err)}
	}
	if len(body) > maxSpecBytes {
		return invalid(http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
	}
	spec, err := ParseSpec(body)
	if err != nil {
		return invalid(http.StatusBadRequest, "%v", err)
	}
	if spec.Experiment != "" {
		if _, ok := s.cfg.Registry.Get(spec.Experiment); !ok {
			return invalid(http.StatusBadRequest, "unknown experiment %q (GET /v1/experiments lists them)", spec.Experiment)
		}
	}
	if spec.FaultPlan != nil && s.cfg.FaultPlanRun == nil {
		return invalid(http.StatusBadRequest, "this server does not accept fault-plan jobs")
	}
	return spec, refusal{}
}

// placement is where placeLocked sends a job.
type placement int

const (
	// placeLead takes a queue slot and runs the simulation.
	placeLead placement = iota
	// placeCoalesce waits on the identical in-flight run.
	placeCoalesce
	// placeStored finishes from the stored result.
	placeStored
)

// placeLocked decides where a job for key goes; the stored entry is set
// for placeStored. no_cache jobs always lead. lookup is Cache.Get on
// admission, which counts a hit or a miss, and Cache.Peek on the recovery
// paths, which counts nothing. The in-flight leader is checked first: a
// key is never both in flight and stored, and checking the leader first
// keeps the cache's hit/miss counters equal to "served from storage" /
// "simulated fresh". s.mu must be held.
func (s *Server) placeLocked(spec *Spec, key string, lookup func(string) (Entry, bool)) (placement, Entry) {
	if spec.NoCache {
		return placeLead, Entry{}
	}
	if s.leaders[key] != nil {
		return placeCoalesce, Entry{}
	}
	if e, ok := lookup(key); ok {
		return placeStored, e
	}
	return placeLead, Entry{}
}

// followLocked coalesces job onto the in-flight run for its key; the
// leader's finishJob completes it. s.mu must be held.
func (s *Server) followLocked(job *Job) {
	job.markCoalesced()
	s.followers[job.key] = append(s.followers[job.key], job)
}

// claimLeaderLocked makes job the in-flight run for its key, unless it
// never shares runs (no_cache) or a duplicate admitted during its fsync
// already leads. s.mu must be held.
func (s *Server) claimLeaderLocked(job *Job) {
	if !job.spec.NoCache && s.leaders[job.key] == nil {
		s.leaders[job.key] = job
	}
}

// unadmitLocked rolls back an admission that was never acknowledged (its
// journal write failed, or drain closed the queue during the fsync): the
// job leaves the job table and, if it coalesced, its follower slot, as if
// the submission had been refused outright. s.mu must be held.
func (s *Server) unadmitLocked(job *Job, place placement) {
	if place == placeCoalesce {
		fols := s.followers[job.key]
		for i, f := range fols {
			if f == job {
				s.followers[job.key] = append(fols[:i], fols[i+1:]...)
				break
			}
		}
	}
	delete(s.jobs, job.id)
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == job.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.jobsTotal.Add(-1)
}

// refusal is one refused submission: its HTTP status, its
// apusimd_jobs_rejected_total reason (empty counts nothing), the
// Retry-After seconds to advise (0 sends none), and the error message.
// The zero refusal refuses nothing.
type refusal struct {
	code       int
	reason     string
	retryAfter int
	msg        string
}

// refuseDraining answers submissions once Drain has begun.
var refuseDraining = refusal{code: http.StatusServiceUnavailable, reason: "draining", msg: "server is draining"}

// refuse writes a refused submission. 429s are load sheds and go through
// shed; every other refusal counts once under its reason.
func (s *Server) refuse(w http.ResponseWriter, tenant string, ref refusal) {
	if ref.code == http.StatusTooManyRequests {
		s.shed(tenant, ref.reason, ref.retryAfter)
	} else if ref.reason != "" {
		s.rejected[ref.reason].Inc()
	}
	if ref.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ref.retryAfter))
	}
	writeErr(w, ref.code, "%s", ref.msg)
}

// admissionRefusalLocked applies admission control. A job that leads
// needs a worker, so it must fit the queue depth; with RequireDurability,
// no job is admitted while the journal cannot hold it. s.mu must be held.
func (s *Server) admissionRefusalLocked(place placement) refusal {
	// Fresh admissions are bounded by the configured depth, not the
	// channel capacity — after a crash the channel is oversized to hold
	// replayed jobs, and that headroom is not new admission budget.
	// pendingEnqueue counts admissions between their journal fsync and
	// their channel send, so reservations hold the bound exact.
	if place == placeLead && len(s.queue)+s.pendingEnqueue >= s.cfg.QueueDepth {
		return refusal{code: http.StatusTooManyRequests, reason: "queue_full", retryAfter: s.retryAfterLocked(),
			msg: fmt.Sprintf("job queue is full (%d deep); retry with backoff", s.cfg.QueueDepth)}
	}
	if s.journal != nil && !s.durabilityOKNow() && s.cfg.RequireDurability {
		return refusal{code: http.StatusServiceUnavailable, reason: "durability", retryAfter: 1,
			msg: "storage durability is degraded and this server requires durable admissions; retry shortly"}
	}
	return refusal{}
}

// retryAfterLocked derives the Retry-After seconds advised on load-shed
// 429s from current queue pressure: roughly one worker-pass over the
// backlog, never less than a second. s.mu must be held.
func (s *Server) retryAfterLocked() int {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	retry := (len(s.queue) + s.running + workers - 1) / workers
	if retry < 1 {
		retry = 1
	}
	s.shedRetryAfter.Set(float64(retry))
	return retry
}

// newJobLocked allocates and registers a job; s.mu must be held. The
// sequence resumes past every journaled job at boot, but a cache hit is
// never journaled, so the ID also carries the boot generation: no boot
// of a data dir reissues an ID an earlier boot handed out.
func (s *Server) newJobLocked(tenant string, spec *Spec, key string) *Job {
	s.seq++
	id := jobID(s.boot, s.seq)
	job := newJob(id, tenant, spec, key)
	job.seq = s.seq
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.jobsTotal.Add(1)
	return job
}

// jobID renders j-<boot>-<seq>, the sequence zero-padded to six digits.
func jobID(boot, seq int) string {
	var buf [48]byte
	b := append(buf[:0], "j-"...)
	b = strconv.AppendInt(b, int64(boot), 10)
	b = append(b, '-')
	for p := 100000; p > 1 && seq < p; p /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(seq), 10)
	return string(b)
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// fetchJob resolves the {id} of a per-job endpoint, answering 404 for an
// unknown job. Fetching an interrupted job re-queues it.
func (s *Server) fetchJob(w http.ResponseWriter, r *http.Request) *Job {
	job := s.jobByID(r.PathValue("id"))
	if job == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil
	}
	s.maybeRequeueInterrupted(job)
	return job
}

// manifestOf returns a job's manifest bytes, or nil. For a job recovered
// as already completed, the bytes live in the durable store rather than on
// the job record; they are fetched by content address.
func (s *Server) manifestOf(job *Job) []byte {
	if m := job.Manifest(); m != nil {
		return m
	}
	if st := job.Status(); st.Recovered && cacheable(st.State) {
		if e, ok := s.cache.Peek(job.key); ok {
			return e.Manifest
		}
	}
	return nil
}

// handleStatus serves one job's status; with ?watch=1 it streams every
// transition as newline-delimited JSON until the job is terminal.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.fetchJob(w, r)
	if job == nil {
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, job.Status())
		return
	}
	ch := job.subscribe()
	defer job.unsubscribe(ch)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	// Heartbeats keep the stream visibly alive between transitions, so a
	// watcher behind a buffering proxy can tell a long-running job from a
	// dead connection. The record shape is a subset of JobStatus plus a
	// "heartbeat" marker: old clients decode it as a harmless status echo.
	hb := time.NewTicker(s.cfg.watchHeartbeat)
	defer hb.Stop()
	type heartbeat struct {
		Heartbeat bool      `json:"heartbeat"`
		ID        string    `json:"id"`
		State     JobState  `json:"state"`
		At        time.Time `json:"at"`
	}
	for {
		select {
		case st := <-ch:
			if err := enc.Encode(st); err != nil {
				return
			}
			flush()
			if st.State.Terminal() {
				return
			}
		case <-hb.C:
			if err := enc.Encode(heartbeat{
				Heartbeat: true, ID: job.id,
				State: job.currentState(), At: time.Now().UTC(),
			}); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleManifest serves the job's stored run manifest verbatim.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	job := s.fetchJob(w, r)
	if job == nil {
		return
	}
	m := s.manifestOf(job)
	if m == nil {
		writeErr(w, http.StatusNotFound, "job %s has no manifest (state %s)", job.id, job.Status().State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(m)
}

// knownJobStates is the set ?status= may filter on.
var knownJobStates = map[JobState]bool{
	JobQueued: true, JobRunning: true, JobInterrupted: true,
	JobOK: true, JobDegraded: true, JobViolated: true,
	JobFailed: true, JobCancelled: true, JobTimeout: true,
}

// handleList serves job statuses in stable submission order (recovered
// jobs first, in their original admission order — job IDs are preserved
// across restarts). An optional ?status= query keeps only jobs currently
// in that state; unknown states are a 400, not an empty list, so a typo
// ("sucess") cannot read as "no such jobs".
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("status"))
	if filter != "" && !knownJobStates[filter] {
		states := make([]string, 0, len(knownJobStates))
		for st := range knownJobStates {
			states = append(states, string(st))
		}
		sort.Strings(states)
		writeErr(w, http.StatusBadRequest, "unknown status %q (one of: %s)", filter, strings.Join(states, ", "))
		return
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		st := j.Status()
		if filter != "" && st.State != filter {
			continue
		}
		out.Jobs = append(out.Jobs, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the service counters in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.WritePromText(w)
}

// handleHealthz serves liveness plus the drain flag and durability state,
// so load balancers can stop routing before shutdown completes and
// operators can spot a server running memory-only on a failing disk.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := struct {
		Status     string `json:"status"`
		Draining   bool   `json:"draining"`
		Durability string `json:"durability"`
		Jobs       int    `json:"jobs"`
	}{Status: "ok", Draining: s.draining, Durability: s.durabilityStateName(), Jobs: len(s.jobs)}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleExperiments lists the runnable experiment IDs.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expEntry struct {
		ID   string `json:"id"`
		Desc string `json:"desc"`
	}
	out := struct {
		Experiments []expEntry `json:"experiments"`
	}{Experiments: []expEntry{}}
	for _, e := range s.cfg.Registry.Experiments() {
		out.Experiments = append(out.Experiments, expEntry{ID: e.ID, Desc: e.Desc})
	}
	writeJSON(w, http.StatusOK, out)
}
