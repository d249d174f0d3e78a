package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

// healthzDurability fetches /v1/healthz and returns the durability field.
func healthzDurability(t *testing.T, d *testDaemon) string {
	t.Helper()
	code, body := d.get(t, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", code, body)
	}
	var h struct {
		Durability string `json:"durability"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	return h.Durability
}

// awaitDurability polls healthz until the durability state matches.
func awaitDurability(t *testing.T, d *testDaemon, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if healthzDurability(t, d) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("durability never reached %q (now %q)", want, healthzDurability(t, d))
}

// TestFailedJournalFsyncSubmitNever202 pins the acceptance invariant: a
// submission whose WAL record cannot be fsynced is refused with 503 and
// leaves no trace — the client never holds a 202 for a job the journal
// does not hold. The failure trips degraded mode, later submissions are
// accepted as explicitly non-durable, and the background probe re-arms
// durability (re-journaling pending work) once the disk heals.
func TestFailedJournalFsyncSubmitNever202(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(nil, durable.FaultConfig{})
	d := newTestDaemon(t, Config{
		Workers: 1, DataDir: dir, FS: ffs,
		DurabilityProbe: 10 * time.Millisecond,
	})
	if got := healthzDurability(t, d); got != "ok" {
		t.Fatalf("fresh daemon durability %q, want ok", got)
	}

	// Every fsync fails from here: the probe cannot silently recover.
	ffs.Arm(durable.FaultConfig{SyncErrRate: 1})
	code, _ := d.submit(t, `{"experiment": "exp-0"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing fsync: %d, want 503 — a 202 here is a durability lie", code)
	}
	// The refused job was fully un-admitted.
	_, body := d.get(t, "/v1/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("refused submit left %d job records: %+v", len(list.Jobs), list.Jobs)
	}
	if got := healthzDurability(t, d); got != "degraded" {
		t.Fatalf("durability after failed fsync %q, want degraded", got)
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), `apusimd_jobs_rejected_total{reason="durability"}`); v != 1 {
		t.Errorf(`rejected{reason="durability"} = %g, want 1`, v)
	}
	if v := promValue(t, string(text), "apusimd_durability_degraded_total"); v < 1 {
		t.Errorf("degraded_total = %g, want >= 1", v)
	}
	if v := promValue(t, string(text), "apusimd_durability_armed"); v != 0 {
		t.Errorf("durability_armed gauge = %g while degraded, want 0", v)
	}

	// Degraded mode still serves: submissions are accepted but marked
	// non-durable, so the 202 honestly promises execution, not survival.
	code, st := d.submit(t, `{"experiment": "exp-gated"}`)
	if code != http.StatusAccepted || !st.NonDurable {
		t.Fatalf("degraded submit: code %d non_durable %v, want 202 + non-durable mark", code, st.NonDurable)
	}

	// Heal the disk; the probe re-arms durability and the recovery
	// checkpoint re-records the still-pending job, clearing its mark.
	ffs.Heal()
	awaitDurability(t, d, "ok")
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, jb := d.get(t, "/v1/jobs/"+st.ID)
		var now JobStatus
		if err := json.Unmarshal(jb, &now); err != nil {
			t.Fatal(err)
		}
		if !now.NonDurable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery never cleared the pending job's non-durable mark")
		}
		time.Sleep(2 * time.Millisecond)
	}
	recs, _, _, err := durable.ReplayDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	journaled := false
	for _, rec := range recs {
		if rec.Op == durable.OpSubmit && rec.Job == st.ID {
			journaled = true
		}
	}
	if !journaled {
		t.Fatal("recovery checkpoint did not journal the pending degraded-era job")
	}
	_, text = d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), "apusimd_durability_recovered_total"); v < 1 {
		t.Errorf("recovered_total = %g, want >= 1", v)
	}

	// The job itself was never disturbed: release it and it finishes.
	close(d.gate)
	d.gate = make(chan struct{})
	if fin := d.await(t, st.ID); fin.State != JobOK {
		t.Fatalf("degraded-era job finished %s, want ok", fin.State)
	}
}

// TestFailedJournalFsyncCoalescedSubmitNever202 pins the same invariant
// for a submission that would coalesce onto an in-flight run: a failed
// fsync refuses it with 503 and rolls it back completely — no job record,
// no coalesced count — while the leader it would have waited on is
// undisturbed and still finishes ok.
func TestFailedJournalFsyncCoalescedSubmitNever202(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(nil, durable.FaultConfig{})
	d := newTestDaemon(t, Config{
		Workers: 1, DataDir: dir, FS: ffs,
		DurabilityProbe: time.Hour, // recovery stays out of the picture
	})
	_, leader := d.submit(t, `{"experiment": "exp-gated"}`)
	// The leader's start record must be synced before the disk fails, so
	// the only fsync that fails is the follower's admission.
	deadline := time.Now().Add(5 * time.Second)
	for d.srv.jobByID(leader.ID).currentState() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("leader never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ffs.Arm(durable.FaultConfig{SyncErrRate: 1})
	if code, _ := d.submit(t, `{"experiment": "exp-gated"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("coalescing submit with failing fsync: %d, want 503", code)
	}
	_, body := d.get(t, "/v1/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != leader.ID {
		t.Fatalf("refused follower left job records: %+v, want only the leader", list.Jobs)
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), "apusimd_cache_coalesced_total"); v != 0 {
		t.Errorf("coalesced_total = %g after a refused follower, want 0", v)
	}
	if v := promValue(t, string(text), `apusimd_jobs_rejected_total{reason="durability"}`); v != 1 {
		t.Errorf(`rejected{reason="durability"} = %g, want 1`, v)
	}

	close(d.gate)
	d.gate = make(chan struct{})
	if fin := d.await(t, leader.ID); fin.State != JobOK {
		t.Fatalf("leader finished %s after its follower was refused, want ok", fin.State)
	}
	ffs.Heal() // let cleanup's drain close the journal cleanly
}

// TestRequireDurabilityRefusesDegradedSubmits covers the strict posture:
// with RequireDurability set, a degraded server refuses new work with
// 503 + Retry-After instead of accepting it as non-durable.
func TestRequireDurabilityRefusesDegradedSubmits(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(nil, durable.FaultConfig{})
	d := newTestDaemon(t, Config{
		Workers: 1, DataDir: dir, FS: ffs,
		RequireDurability: true,
		DurabilityProbe:   time.Hour, // recovery stays out of the picture
	})

	ffs.Arm(durable.FaultConfig{SyncErrRate: 1})
	if code, _ := d.submit(t, `{"experiment": "exp-0"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("tripping submit: %d, want 503", code)
	}
	// Now degraded: the strict server refuses instead of degrading acks.
	resp, err := d.http.Client().Post(d.http.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "exp-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded strict submit: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("strict durability 503 carries no Retry-After")
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), `apusimd_jobs_rejected_total{reason="durability"}`); v < 2 {
		t.Errorf(`rejected{reason="durability"} = %g, want >= 2`, v)
	}
	ffs.Heal() // let cleanup's drain checkpoint cleanly
}

// TestTimeoutMSJobReachesTerminalTimeout pins the per-job deadline: a
// spec with timeout_ms reaches the terminal "timeout" state, visible in
// the job JSON and recorded in the journal, and is never cached.
func TestTimeoutMSJobReachesTerminalTimeout(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})

	// The gated experiment ignores its deadline; the runner abandons it.
	_, st := d.submit(t, `{"experiment": "exp-gated", "timeout_ms": 60}`)
	fin := d.await(t, st.ID)
	if fin.State != JobTimeout {
		t.Fatalf("deadline job finished %s, want timeout", fin.State)
	}
	if fin.TimeoutMS != 60 {
		t.Errorf("status echoes timeout_ms %d, want 60", fin.TimeoutMS)
	}
	if fin.Error == "" || !strings.Contains(fin.Error, "deadline") {
		t.Errorf("timeout error %q does not name the deadline", fin.Error)
	}

	// The terminal state is journaled, so it survives a restart.
	recs, _, _, err := durable.ReplayDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	for _, rec := range recs {
		if rec.Op == durable.OpDone && rec.Job == st.ID {
			done = true
			if rec.State != string(JobTimeout) {
				t.Errorf("journaled done state %q, want timeout", rec.State)
			}
		}
	}
	if !done {
		t.Fatal("no done record journaled for the timed-out job")
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), `apusimd_jobs_completed_total{state="timeout"}`); v != 1 {
		t.Errorf(`completed{state="timeout"} = %g, want 1`, v)
	}

	// A timeout is a property of this run's wall clock, not of the spec:
	// it must never be served from cache. (The gate is still closed, so a
	// cache hit — not a fresh queued run — would be the only wrong answer.)
	code, st2 := d.submit(t, `{"experiment": "exp-gated", "timeout_ms": 60}`)
	if code != http.StatusAccepted || st2.CacheHit {
		t.Fatalf("resubmit after timeout: code %d cacheHit %v, want a fresh 202", code, st2.CacheHit)
	}
	d.await(t, st2.ID)
}

// TestJobTimeoutBoundsRetriedJob pins JobTimeout as the deadline of the
// whole job: a retried job that runs out of time ends in timeout, and its
// retries neither restart the clock nor wait between attempts.
func TestJobTimeoutBoundsRetriedJob(t *testing.T) {
	const jobTimeout = 100 * time.Millisecond
	d := newTestDaemon(t, Config{Workers: 1, JobTimeout: jobTimeout})
	_, st := d.submit(t, `{"experiment": "exp-gated", "retries": 3}`)
	fin := d.await(t, st.ID)
	if fin.State != JobTimeout {
		t.Fatalf("retried job finished %s (%s), want timeout", fin.State, fin.Error)
	}
	if e2e := time.Duration(fin.E2ENS); e2e >= 4*jobTimeout {
		t.Errorf("retried job took %v end to end, want under 4x its %v deadline", e2e, jobTimeout)
	}
}

// TestTimedOutJobsReportOneError pins one deadline per job: every job that
// runs out of time reports the same error, naming the deadline.
func TestTimedOutJobsReportOneError(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	texts := make(map[string]int)
	for i := 0; i < 20; i++ {
		// Timeouts are never cached, so each submission runs afresh.
		_, st := d.submit(t, `{"experiment": "exp-gated", "timeout_ms": 20}`)
		fin := d.await(t, st.ID)
		if fin.State != JobTimeout {
			t.Fatalf("job %d finished %s, want timeout", i, fin.State)
		}
		texts[fin.Error]++
	}
	if len(texts) != 1 {
		t.Fatalf("timed-out jobs reported %d error texts, want 1: %v", len(texts), texts)
	}
	for text := range texts {
		if !strings.Contains(text, "deadline") {
			t.Errorf("timeout error %q does not name the deadline", text)
		}
	}
}

// TestLatencyShedsSlowQueue arms latency-aware admission and shows that
// a backlogged server whose p95 queue wait exceeds MaxQueueWait sheds
// fresh submissions with 429 queue_slow, even though the queue is
// nowhere near its depth bound.
func TestLatencyShedsSlowQueue(t *testing.T) {
	d := newTestDaemon(t, Config{
		Workers: 1, QueueDepth: 64,
		MaxQueueWait: 10 * time.Millisecond,
	})
	// Occupy the only worker so the server counts as backlogged.
	_, gated := d.submit(t, `{"experiment": "exp-gated"}`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := d.get(t, "/v1/jobs/"+gated.ID)
		var now JobStatus
		_ = json.Unmarshal(body, &now)
		if now.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gated job never started (state %s)", now.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Feed the latency signal directly: eight observed 1s queue waits put
	// p95 far beyond the 10ms bound.
	for i := 0; i < minQueueWaitSamples; i++ {
		d.srv.queueWait.Observe(1.0)
	}

	resp, err := d.http.Client().Post(d.http.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "exp-0"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("slow-queue submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue_slow 429 carries no Retry-After")
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), `apusimd_jobs_rejected_total{reason="queue_slow"}`); v < 1 {
		t.Errorf(`rejected{reason="queue_slow"} = %g, want >= 1`, v)
	}
	// Cache hits still serve during shedding: reading is not admission.
	close(d.gate)
	d.gate = make(chan struct{})
	d.await(t, gated.ID)
}

// TestDrainCompactsJournal pins the graceful-shutdown compaction: a
// daemon that rotated through many segments while running leaves exactly
// one compact checkpoint segment behind, and a restart replays the same
// terminal jobs from it.
func TestDrainCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, Config{
		Workers: 1, DataDir: dir,
		JournalSegmentBytes: 1, // rotate on every append
	})
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		_, st := d.submit(t, fmt.Sprintf(`{"experiment": "exp-%d"}`, i))
		d.await(t, st.ID)
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	recs, stats, _, err := durable.ReplayDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Fatalf("journal holds %d segments after drain, want 1 compact checkpoint", stats.Segments)
	}
	byJob := make(map[string]string)
	for _, rec := range recs {
		if rec.Op == durable.OpDone {
			byJob[rec.Job] = rec.State
		}
	}
	for _, id := range ids {
		if byJob[id] != string(JobOK) {
			t.Errorf("checkpoint lost job %s (done state %q, want ok)", id, byJob[id])
		}
	}
}

// TestDiskFaultStormGracefulNoAckedLoss is the in-process chaos test: a
// seeded fault storm batters every write path while jobs flow, the disk
// heals, the breaker recovers, and after a graceful restart every job
// that was acknowledged survives with its state intact and any manifest
// byte-identical. Run under -race in CI.
func TestDiskFaultStormGracefulNoAckedLoss(t *testing.T) {
	dir := t.TempDir()
	ffs := durable.NewFaultFS(nil, durable.FaultConfig{
		Seed:         0xA9,
		WriteErrRate: 0.08,
		SyncErrRate:  0.08,
		OpErrRate:    0.04,
		TornWrites:   true,
	})
	a := newTestDaemon(t, Config{
		Workers: 2, QueueDepth: 64, DataDir: dir, FS: ffs,
		DurabilityProbe: 10 * time.Millisecond,
	})

	type acked struct {
		id      string
		durable bool
	}
	var accepted []acked
	for i := 0; i < 30; i++ {
		if i == 15 {
			// Guarantee at least one breaker trip even if the seeded rates
			// happened to spare the journal so far.
			ffs.FailNextSyncs(1)
		}
		spec := fmt.Sprintf(`{"experiment": "exp-%d", "seed": %d}`, i%10, 1000+i)
		code, st := a.submit(t, spec)
		switch code {
		case http.StatusAccepted, http.StatusOK:
			accepted = append(accepted, acked{id: st.ID, durable: !st.NonDurable})
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			// Refused is always legal under faults; lost-after-ack is not.
		default:
			t.Fatalf("storm submit %d: unexpected status %d", i, code)
		}
	}
	ffs.Heal()
	awaitDurability(t, a, "ok")
	// With the disk healed and durability re-armed, a final wave of jobs
	// writes through to the store; their manifests must survive the
	// restart byte-identically.
	for i := 30; i < 34; i++ {
		spec := fmt.Sprintf(`{"experiment": "exp-%d", "seed": %d}`, i%10, 1000+i)
		code, st := a.submit(t, spec)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("post-heal submit %d: status %d", i, code)
		}
		accepted = append(accepted, acked{id: st.ID, durable: !st.NonDurable})
	}

	// Every acknowledged job reaches a terminal state despite the storm.
	states := make(map[string]JobState)
	manifests := make(map[string][]byte)
	for _, ack := range accepted {
		fin := a.await(t, ack.id)
		states[ack.id] = fin.State
		if fin.State == JobOK {
			if code, m := a.get(t, "/v1/jobs/"+ack.id+"/manifest"); code == http.StatusOK {
				manifests[ack.id] = m
			}
		}
	}
	awaitDurability(t, a, "ok")
	_, text := a.get(t, "/v1/metrics")
	if v := promValue(t, string(text), "apusimd_durability_degraded_total"); v < 1 {
		t.Errorf("degraded_total = %g, want >= 1 (the storm never tripped the breaker)", v)
	}
	if v := promValue(t, string(text), "apusimd_durability_recovered_total"); v < 1 {
		t.Errorf("recovered_total = %g, want >= 1", v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.srv.Drain(ctx); err != nil {
		t.Fatalf("drain after storm: %v", err)
	}

	// Restart on the healed filesystem: zero acknowledged-job loss.
	b := newTestDaemon(t, Config{Workers: 2, DataDir: dir})
	served := 0
	for _, ack := range accepted {
		code, body := b.get(t, "/v1/jobs/"+ack.id)
		if code != http.StatusOK {
			t.Errorf("acked job %s lost across restart: %d", ack.id, code)
			continue
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != states[ack.id] {
			t.Errorf("job %s state %s across restart, want %s", ack.id, st.State, states[ack.id])
		}
		want, had := manifests[ack.id]
		if !had {
			continue
		}
		if code, got := b.get(t, "/v1/jobs/"+ack.id+"/manifest"); code == http.StatusOK {
			served++
			if !bytes.Equal(got, want) {
				t.Errorf("manifest for %s differs across the storm restart", ack.id)
			}
		}
	}
	if len(manifests) > 0 && served == 0 {
		t.Error("no manifest survived the storm restart; expected at least one store write to have landed")
	}
}

// TestWatchDisconnectDoesNotCancelJob is the satellite regression: a
// client that opens ?watch=1 and hangs up must only end its own stream —
// the job keeps running on the worker pool and completes.
func TestWatchDisconnectDoesNotCancelJob(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	_, st := d.submit(t, `{"experiment": "exp-gated"}`)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", d.http.URL+"/v1/jobs/"+st.ID+"?watch=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.http.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first streamed status, then hang up mid-stream.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading watch stream: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The job is unaffected: it still holds the worker and finishes once
	// the gate opens.
	time.Sleep(20 * time.Millisecond)
	if now := d.srv.jobByID(st.ID).currentState(); now != JobRunning && now != JobQueued {
		t.Fatalf("job state %s after watcher hangup, want still queued/running", now)
	}
	close(d.gate)
	d.gate = make(chan struct{})
	if fin := d.await(t, st.ID); fin.State != JobOK {
		t.Fatalf("job finished %s after watcher hangup, want ok", fin.State)
	}
}
