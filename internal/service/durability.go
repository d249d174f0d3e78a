package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
)

// This file is the service side of crash safety: it wires the durable
// store and journal into the server, replays the journal at boot into
// live job records, re-queues interrupted jobs on demand, and runs the
// storage circuit breaker that keeps the daemon serving when its disk
// stops cooperating.
//
// The recovery policy, per journaled job:
//
//   - done record present      → recreate the job terminal; its manifest
//     (if the state is cacheable) is served from the store by content
//     address. A done record whose state is not terminal → failed.
//   - spec unparseable or needs a capability this server lacks → failed.
//   - result already in the store → finish from cache ("from_cache").
//   - any job in the key group had started → the whole group parks as
//     interrupted; the next status/manifest fetch re-queues it. Re-running
//     at boot would turn a spec that crashes the daemon into a crash
//     loop, so the retry waits for a client to ask.
//   - else (queued at the crash) → re-enqueued immediately, first job
//     per key leading and the rest coalescing, exactly like admission.
//
// The circuit breaker: any journal append/sync failure or store write
// failure trips the server into degraded memory-only mode. Workers and
// the in-memory cache keep serving; new submissions are accepted but
// marked non-durable (or refused with 503 under Config.RequireDurability).
// A background probe re-tests the data dir every Config.DurabilityProbe
// and, once a probe write round-trips, re-arms durability with a journal
// checkpoint that re-records every still-pending job.

// The storage circuit breaker's states, held in Server.durability.
const (
	// durabilityNone: no DataDir — the server is memory-only by
	// configuration, not by failure. The probe never runs.
	durabilityNone = int32(iota)
	// durabilityOK: admissions are journaled and fsynced before their 202.
	durabilityOK
	// durabilityDegraded: storage is failing; the journal and store are
	// left untouched until the probe heals them.
	durabilityDegraded
)

// durabilityOKNow reports whether admissions are currently durable.
func (s *Server) durabilityOKNow() bool { return s.durability.Load() == durabilityOK }

// durabilityStateName renders the breaker state for healthz/debug.
func (s *Server) durabilityStateName() string {
	switch s.durability.Load() {
	case durabilityOK:
		return "ok"
	case durabilityDegraded:
		return "degraded"
	default:
		return "none"
	}
}

// tripDurability flips the breaker ok → degraded. Lock-free and
// idempotent, so it is safe from any path — including ones holding s.mu —
// and concurrent failures log exactly one transition.
func (s *Server) tripDurability(cause string, err error) {
	if !s.durability.CompareAndSwap(durabilityOK, durabilityDegraded) {
		return
	}
	s.cache.SetStoreWrites(false)
	s.degradedTotal.Inc()
	s.log.Error("durability degraded: entering memory-only mode",
		"cause", cause, "error", fmt.Sprint(err), "durability", "degraded")
	s.flight.Record(FlightEvent{Event: "durability", Detail: "degraded: " + cause})
}

// openDurable opens the store and journal under cfg.DataDir, replays the
// journal into job records, and returns the jobs to re-enqueue. It is a
// no-op returning nil when DataDir is empty. Called from New before the
// queue exists and before any worker starts, so it owns all state.
func (s *Server) openDurable() ([]*Job, error) {
	if s.cfg.DataDir == "" {
		return nil, nil
	}
	store, err := durable.OpenStore(s.fs, s.cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("service: opening durable store: %w", err)
	}
	s.store = store
	s.cache.AttachStore(store)
	s.cache.SetStoreErrorHook(func(err error) { s.tripDurability("store write", err) })

	journal, recs, stats, err := durable.OpenJournalDir(s.fs, s.cfg.DataDir, durable.JournalOptions{})
	if err != nil {
		return nil, fmt.Errorf("service: opening job journal: %w", err)
	}
	if stats.Corrupt > 0 || stats.BadHeaders > 0 || stats.MissingSegments > 0 || stats.Unreadable > 0 {
		s.log.Warn("journal replay skipped damaged data",
			"corrupt_records", stats.Corrupt, "bad_headers", stats.BadHeaders,
			"missing_segments", stats.MissingSegments, "unreadable_segments", stats.Unreadable)
	}
	s.journal = journal
	// The boot generation is the index the boot checkpoint's segment
	// takes. Segment indexes only grow while the data dir lives, so no two
	// boots share one; a server without a data dir keeps 0.
	s.boot = journal.NextSegment()
	requeue := s.rebuildJobs(durable.BuildRecovery(recs))

	// Checkpoint the journal down to the still-live jobs, so the previous
	// process's terminal jobs replay at this boot and retire. Every job
	// that is terminal now is bootTerminal and none is running, so the
	// checkpoint holds the queued and interrupted jobs only; terminal
	// results live in the store under their content address. A failed
	// boot checkpoint is a storage failure, not a construction failure —
	// the replayed state is already in memory, so the server starts
	// degraded and lets the probe heal it.
	if err := journal.Checkpoint(s.checkpointRecords()); err != nil {
		s.durability.Store(durabilityOK) // arm so the trip below logs the transition
		s.tripDurability("boot checkpoint", err)
		return requeue, nil
	}
	s.durability.Store(durabilityOK)
	return requeue, nil
}

// durabilityLoop is the breaker's background goroutine: while degraded it
// probes the data dir on the configured cadence and re-arms on success.
// Runs only when a journal exists; exits when Drain closes probeStop.
func (s *Server) durabilityLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.DurabilityProbe)
	defer tick.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-tick.C:
			if s.durability.Load() == durabilityDegraded {
				s.probeAndRecover()
			}
		}
	}
}

// probeDataDir proves the data dir can take durable writes again: a small
// file must create, write, fsync, and remove cleanly.
func (s *Server) probeDataDir() error {
	probe := filepath.Join(s.cfg.DataDir, ".durability-probe")
	f, err := s.fs.OpenFile(probe, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("probe\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.fs.Remove(probe)
}

// probeAndRecover re-tests storage and, on success, re-arms durability:
// the journal is checkpointed to the live job set (re-recording every
// job admitted while degraded), non-terminal jobs shed their non-durable
// mark, and store write-through resumes. Any failure leaves the breaker
// degraded for the next probe tick.
func (s *Server) probeAndRecover() {
	if err := s.probeDataDir(); err != nil {
		s.log.Debug("durability probe failed; staying degraded", "error", fmt.Sprint(err))
		return
	}
	s.mu.Lock()
	recs := s.checkpointRecords()
	var pending []*Job
	for _, id := range s.order {
		if job := s.jobs[id]; job != nil {
			pending = append(pending, job)
		}
	}
	if err := s.journal.Checkpoint(recs); err != nil {
		s.mu.Unlock()
		s.journalErrors.Inc()
		s.log.Debug("recovery checkpoint failed; staying degraded", "error", fmt.Sprint(err))
		return
	}
	// Re-arm while still holding s.mu: a submission racing this recovery
	// either sees degraded (admits non-durable, harmless) or sees ok after
	// the checkpoint is already on disk — never ok with a dead journal.
	s.durability.Store(durabilityOK)
	s.mu.Unlock()
	for _, job := range pending {
		job.clearNonDurable()
	}
	s.cache.SetStoreWrites(true)
	s.recoveredDur.Inc()
	s.log.Info("durability recovered: admissions journaled again", "durability", "ok")
	s.flight.Record(FlightEvent{Event: "durability", Detail: "recovered"})
}

// rebuildJobs folds replayed journal records into live jobs, applying
// the recovery policy above. It returns the jobs to re-enqueue. Runs
// single-threaded from New, so it touches server maps without s.mu.
func (s *Server) rebuildJobs(recovered []durable.JobRecovery) []*Job {
	// The interrupted rule is per key group: if any pending job for a key
	// had started, the crash happened (or may have happened) inside that
	// simulation, and every job waiting on it parks as interrupted.
	startedKeys := make(map[string]bool)
	for _, jr := range recovered {
		if jr.State == "" && jr.Started {
			startedKeys[jr.Key] = true
		}
	}

	var requeue []*Job
	for _, jr := range recovered {
		if jr.Seq > s.seq {
			s.seq = jr.Seq
		}
		spec, perr := ParseSpec(jr.Spec)
		job := newJob(jr.Job, jr.Tenant, spec, jr.Key)
		job.seq = jr.Seq
		job.recovered = true
		s.jobs[jr.Job] = job
		s.order = append(s.order, jr.Job)
		s.jobsTotal.Add(1)

		switch state := JobState(jr.State); {
		case state != "" && !state.Terminal():
			job.bootTerminal = true
			job.finish(JobFailed, nil, fmt.Sprintf("recovered done record holds non-terminal state %q", state), 0)
			s.noteRecovered(job, "failed")

		case state != "":
			job.bootTerminal = true
			job.finish(state, nil, "", jr.Attempts)
			s.noteRecovered(job, "completed")

		case perr != nil:
			job.bootTerminal = true
			job.finish(JobFailed, nil, fmt.Sprintf("recovered job spec no longer parses: %v", perr), 0)
			s.noteRecovered(job, "failed")

		case spec.FaultPlan != nil && s.cfg.FaultPlanRun == nil:
			job.bootTerminal = true
			job.finish(JobFailed, nil, "recovered fault-plan job, but this server does not accept fault plans", 0)
			s.noteRecovered(job, "failed")

		default:
			// no_cache jobs share content keys with cache-participating
			// submissions but never share runs, so only this job's own
			// start record parks it.
			parked := startedKeys[jr.Key]
			if spec.NoCache {
				parked = jr.Started
			}
			// Peek, not Get: boot-time recovery is bookkeeping, and must
			// not skew the admission-facing hit/miss counters.
			switch place, stored := s.placeLocked(spec, jr.Key, s.cache.Peek); {
			case place == placeStored:
				job.bootTerminal = true
				job.finish(stored.State, stored.Manifest, "", stored.Attempts)
				s.noteRecovered(job, "from_cache")
			case place == placeCoalesce:
				s.followLocked(job)
				s.noteRecovered(job, "requeued")
			case parked:
				job.setState(JobInterrupted)
				s.noteRecovered(job, "interrupted")
			default:
				s.claimLeaderLocked(job)
				requeue = append(requeue, job)
				s.noteRecovered(job, "requeued")
			}
		}
	}
	return requeue
}

// checkpointRecords renders the full journal state a runtime checkpoint
// preserves: every job this process admitted or completed, as its minimal
// record set — submit, plus a start for running/interrupted jobs (so a
// crash after the checkpoint still parks them instead of re-running a
// possibly poisoning spec), plus a done for terminal ones (so a graceful
// restart recreates them, exactly as replaying the uncompacted journal
// would have). A job whose start or done record is being journaled ahead
// of its state counts as running or terminal, so the checkpoint cannot
// drop that record. Jobs that were already terminal at this boot are
// dropped — their records live one restart, then retire — and so are
// cache hits, which admission never journals: a hit's job record lives
// as long as its process, and its result lives in the store. s.mu must
// be held.
func (s *Server) checkpointRecords() []durable.Record {
	var recs []durable.Record
	for _, id := range s.order {
		job := s.jobs[id]
		if job.bootTerminal || job.cacheHit {
			continue
		}
		st := job.Status()
		recs = append(recs, s.submitRecord(job))
		switch {
		case st.State.Terminal():
			recs = append(recs, durable.Record{
				Op: durable.OpDone, Job: job.id,
				State: string(st.State), Attempts: st.Attempts,
			})
		case job.pending != nil && job.pending.Op == durable.OpDone:
			recs = append(recs, *job.pending)
		case st.State == JobRunning || st.State == JobInterrupted || job.pending != nil:
			recs = append(recs, durable.Record{Op: durable.OpStart, Job: job.id})
		}
	}
	return recs
}

// submitRecord renders a job's admission as a journal record. The spec
// is the original parsed submission (not the canonical form), so flags
// like no_cache survive a replay.
func (s *Server) submitRecord(job *Job) durable.Record {
	specJSON, err := json.Marshal(job.spec)
	if err != nil { // a parsed Spec always re-marshals; defensive only
		specJSON = nil
	}
	return durable.Record{
		Op:     durable.OpSubmit,
		Job:    job.id,
		Seq:    job.seq,
		Tenant: job.tenant,
		Key:    job.key,
		Spec:   specJSON,
	}
}

// journalAppend buffers a record; journalSync group-commits everything
// buffered so far; journalAppendSync does both. All are no-ops without a
// journal or while durability is degraded, and journal failures trip the
// circuit breaker but never fail jobs — the failure is counted on
// apusimd_journal_errors_total and the server keeps serving from memory.
// (handleSubmit does NOT use these: a failed pre-202 fsync must roll the
// admission back, so it calls the journal directly.)
func (s *Server) journalAppend(rec durable.Record) {
	if s.journal == nil || !s.durabilityOKNow() {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.journalErrors.Inc()
		s.tripDurability("journal append", err)
	}
}

func (s *Server) journalSync() {
	if s.journal == nil || !s.durabilityOKNow() {
		return
	}
	if err := s.journal.Sync(); err != nil {
		s.journalErrors.Inc()
		s.tripDurability("journal sync", err)
	}
}

func (s *Server) journalAppendSync(rec durable.Record) {
	s.journalAppend(rec)
	s.journalSync()
}

// maybeRequeueInterrupted moves an interrupted job back into the flow on
// a client fetch, placed exactly like a recovered job: finish it from the
// store if the result has appeared, fall in behind an identical in-flight
// run, or take a queue slot if one is free. A full queue leaves the job
// interrupted — the next fetch tries again — so recovery retries can never
// displace fresh admissions.
func (s *Server) maybeRequeueInterrupted(job *Job) {
	if job.currentState() != JobInterrupted {
		return
	}
	s.mu.Lock()
	// Re-check under s.mu: a concurrent fetch may have re-queued it.
	if job.currentState() != JobInterrupted || s.draining {
		s.mu.Unlock()
		return
	}
	place, stored := s.placeLocked(job.spec, job.key, s.cache.Peek)
	switch place {
	case placeStored:
		// Journal and count before publishing, as finishJob does.
		rec := &durable.Record{Op: durable.OpDone, Job: job.id, State: string(stored.State), Attempts: stored.Attempts}
		job.pending = rec
		s.mu.Unlock()
		s.journalAppendSync(*rec)
		s.completed[stored.State].Add(1)
		job.finish(stored.State, stored.Manifest, "", stored.Attempts)
		s.observeJobLatency(job, job.Status())
		s.event(job, "requeue_interrupted", "from_cache", "interrupted job finished from cache",
			"state", string(stored.State))
		return
	case placeCoalesce:
		s.followLocked(job)
	default:
		if len(s.queue)+s.pendingEnqueue >= s.cfg.QueueDepth || len(s.queue)+s.pendingEnqueue >= cap(s.queue) {
			s.mu.Unlock()
			return
		}
		s.claimLeaderLocked(job)
	}
	// Transition before the send: the worker may set running immediately,
	// and setState ignores nothing here (interrupted is not terminal).
	job.setState(JobQueued)
	s.journalAppend(s.submitRecord(job))
	via := "coalesce"
	if place == placeLead {
		s.queue <- job // cannot block: depth checked under s.mu
		via = "queue"
	}
	s.mu.Unlock()
	s.journalSync()
	s.event(job, "requeue_interrupted", via, "interrupted job re-queued", "via", via)
}
