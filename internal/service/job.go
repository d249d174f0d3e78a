package service

import (
	"sync"
	"time"

	"repro/internal/durable"
)

// JobState is one point in a job's lifecycle. Jobs move
// queued → running → one terminal state; cache-hit and coalesced jobs
// may reach a terminal state without ever running.
type JobState string

// The job lifecycle.
const (
	// JobQueued means the job is admitted and waiting for a worker (or,
	// for a coalesced job, waiting on the identical in-flight run).
	JobQueued JobState = "queued"
	// JobRunning means a worker is simulating the job now.
	JobRunning JobState = "running"
	// JobOK, JobDegraded, and JobViolated mirror the runner's statuses of
	// the same names: completed clean, completed under injected faults,
	// and aborted by the watchdog or strict audit.
	JobOK       JobState = "ok"
	JobDegraded JobState = "degraded"
	JobViolated JobState = "violated"
	// JobFailed covers the remaining runner failures: errors and panics.
	// The status record's Error field says which.
	JobFailed JobState = "failed"
	// JobTimeout marks a job that exceeded its wall-clock deadline — the
	// spec's timeout_ms or the server default. Terminal but never cached:
	// a timeout is a property of this run's wall clock, not of the spec.
	JobTimeout JobState = "timeout"
	// JobCancelled marks a job stopped by a forced shutdown before it
	// could finish.
	JobCancelled JobState = "cancelled"
	// JobInterrupted marks a recovered job that was running when the
	// daemon died. It is NOT terminal: the daemon does not re-run such
	// jobs at boot (the job itself may be what killed the process), but
	// the next status or manifest fetch transparently re-queues it.
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state ends the lifecycle.
func (s JobState) Terminal() bool {
	switch s {
	case JobOK, JobDegraded, JobViolated, JobFailed, JobCancelled, JobTimeout:
		return true
	}
	return false
}

// Transition is one recorded state change.
type Transition struct {
	State JobState  `json:"state"`
	At    time.Time `json:"at"`
}

// JobStatus is the wire form of a job's current state, served by
// GET /v1/jobs/{id} and streamed by ?watch=1.
type JobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant,omitempty"`
	State  JobState `json:"state"`
	// SpecHash is the content address of the job's normalized spec — the
	// cache key.
	SpecHash string `json:"spec_hash"`
	// TraceID is the job's trace correlation key: the same 16-hex-digit ID
	// appears in the daemon's structured log lines, the lifecycle trace
	// served by GET /v1/jobs/{id}/trace, and the /v1/debug worker table
	// while the job runs.
	TraceID string `json:"trace_id,omitempty"`
	// QueuedNS, RunNS, and E2ENS are wall-clock stage durations stamped
	// from the recorded transitions: admission → worker pickup, worker
	// pickup → terminal, and admission → terminal. QueuedNS and RunNS are
	// present only for jobs that actually ran (cache hits and coalesced
	// jobs reuse a result without running); E2ENS is present once the job
	// is terminal. All three are observability data and are firewalled out
	// of manifests, which carry only deterministic simulated-time records.
	QueuedNS int64 `json:"queued_ns,omitempty"`
	RunNS    int64 `json:"run_ns,omitempty"`
	E2ENS    int64 `json:"e2e_ns,omitempty"`
	// CacheHit marks a job served from the stored result cache;
	// Coalesced marks one that waited on an identical in-flight run
	// instead of simulating again. Both reuse a result, so both count as
	// cache hits for throughput accounting.
	CacheHit  bool `json:"cache_hit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Attempts is how many runner attempts produced the result (echoed
	// from the original run for reused results).
	Attempts int `json:"attempts,omitempty"`
	// Error describes a failed/cancelled/violated outcome.
	Error string `json:"error,omitempty"`
	// HasManifest says whether GET /v1/jobs/{id}/manifest will succeed.
	HasManifest bool `json:"has_manifest"`
	// Recovered marks a job rebuilt from the journal after a restart
	// rather than submitted to this process.
	Recovered bool `json:"recovered,omitempty"`
	// NonDurable marks a job admitted while storage durability was
	// degraded: it runs and completes normally but is not journaled, so a
	// crash before completion loses it. Cleared on queued/running jobs
	// when the durability probe re-arms the journal (they are re-recorded
	// by the recovery checkpoint).
	NonDurable bool `json:"non_durable,omitempty"`
	// TimeoutMS echoes the spec's wall-clock deadline, when one was set.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Transitions is the recorded lifecycle so far.
	Transitions []Transition `json:"transitions"`
}

// Job is one submitted run. All fields behind mu; accessors copy.
type Job struct {
	id     string
	tenant string
	spec   *Spec
	key    string
	// traceID is the job's trace correlation key, immutable after
	// admission (or recovery). It threads through structured logs, the
	// journal, the flight recorder, and GET /v1/jobs/{id}/trace.
	traceID   string
	seq       int  // admission order, stable across journal replay
	recovered bool // rebuilt from the journal after a restart
	// bootTerminal marks a job that was already terminal when this process
	// rebuilt it from the journal. Checkpoints drop such jobs (their
	// results live in the store; their records survive one restart only),
	// while jobs that reached a terminal state in THIS process stay
	// journaled until the next boot's checkpoint retires them.
	bootTerminal bool
	// pending is the last start or done record journaled ahead of the
	// state it records: the state is published only once the record is
	// durable, and a checkpoint taken in between writes the record
	// itself. A pointer, so jobs that never run (cache hits) stay small.
	// Guarded by Server.mu.
	pending *durable.Record

	mu          sync.Mutex
	state       JobState
	errMsg      string
	attempts    int
	cacheHit    bool
	coalesced   bool
	nonDurable  bool
	manifest    []byte
	transitions []Transition
	subs        []chan JobStatus
}

// newJob constructs a job in the queued state.
func newJob(id, tenant string, spec *Spec, key string) *Job {
	j := &Job{id: id, tenant: tenant, spec: spec, key: key}
	j.state = JobQueued
	j.transitions = []Transition{{State: JobQueued, At: time.Now().UTC()}}
	return j
}

// Status returns a snapshot of the job's current state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	queued, run, e2e := j.stageNanosLocked()
	var timeoutMS int64
	if j.spec != nil {
		timeoutMS = j.spec.TimeoutMS
	}
	return JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		SpecHash:    j.key,
		TraceID:     j.traceID,
		QueuedNS:    queued,
		RunNS:       run,
		E2ENS:       e2e,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		Attempts:    j.attempts,
		Error:       j.errMsg,
		HasManifest: len(j.manifest) > 0 || (j.recovered && cacheable(j.state)),
		Recovered:   j.recovered,
		NonDurable:  j.nonDurable,
		TimeoutMS:   timeoutMS,
		Transitions: append([]Transition(nil), j.transitions...),
	}
}

// stageNanosLocked derives the wall-clock stage durations from the
// recorded transitions: admission → first worker pickup (queue wait),
// pickup → terminal (run), and admission → terminal (end to end). Queue
// and run durations exist only for jobs that actually ran; run and
// end-to-end only once the job is terminal. Clock steps clamp to zero.
func (j *Job) stageNanosLocked() (queuedNS, runNS, e2eNS int64) {
	n := len(j.transitions)
	if n == 0 {
		return 0, 0, 0
	}
	clamp := func(d time.Duration) int64 {
		if d < 0 {
			return 0
		}
		return d.Nanoseconds()
	}
	first := j.transitions[0]
	last := j.transitions[n-1]
	var runAt time.Time
	for _, tr := range j.transitions {
		if tr.State == JobRunning {
			runAt = tr.At
			break
		}
	}
	if !runAt.IsZero() {
		queuedNS = clamp(runAt.Sub(first.At))
		if last.State.Terminal() {
			runNS = clamp(last.At.Sub(runAt))
		}
	}
	if last.State.Terminal() {
		e2eNS = clamp(last.At.Sub(first.At))
	}
	return queuedNS, runNS, e2eNS
}

// currentState returns the job's state under its lock.
func (j *Job) currentState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// markCoalesced flags the job as waiting on an identical in-flight run.
// Used when an interrupted job is re-queued onto an existing leader.
func (j *Job) markCoalesced() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.coalesced = true
}

// markNonDurable flags a job admitted while durability was degraded: it
// was never journaled, so its 202 promises execution, not crash
// survival.
func (j *Job) markNonDurable() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nonDurable = true
}

// clearNonDurable removes the degraded-admission mark once the job is
// journaled again (the recovery checkpoint re-records every pending
// job). Terminal jobs keep the mark: their results were never persisted.
func (j *Job) clearNonDurable() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.nonDurable = false
	}
}

// Manifest returns the job's stored manifest bytes, or nil if the job has
// not produced one (yet, or at all).
func (j *Job) Manifest() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest
}

// setState records a transition and notifies watchers. Transitions to a
// terminal state carry the outcome; later calls on a terminal job are
// ignored (a forced shutdown racing a finishing worker must not flip a
// completed job to cancelled).
func (j *Job) setState(state JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.transitions = append(j.transitions, Transition{State: state, At: time.Now().UTC()})
	j.notifyLocked()
}

// finish records the terminal outcome in one step.
func (j *Job) finish(state JobState, manifest []byte, errMsg string, attempts int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.manifest = manifest
	j.errMsg = errMsg
	j.attempts = attempts
	j.transitions = append(j.transitions, Transition{State: state, At: time.Now().UTC()})
	j.notifyLocked()
}

// notifyLocked pushes the current status to every subscriber. Channels
// are buffered deep enough for the whole lifecycle, so sends never block
// with j.mu held.
func (j *Job) notifyLocked() {
	st := j.statusLocked()
	for _, ch := range j.subs {
		select {
		case ch <- st:
		default: // a stalled watcher loses intermediate states, never the lock
		}
	}
}

// subscribe registers a watcher and primes it with the current status.
// The channel buffer covers every state a job can pass through, so a
// draining reader sees each transition.
func (j *Job) subscribe() chan JobStatus {
	ch := make(chan JobStatus, 8)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs = append(j.subs, ch)
	ch <- j.statusLocked()
	return ch
}

// unsubscribe removes a watcher.
func (j *Job) unsubscribe(ch chan JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
}
