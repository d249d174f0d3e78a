package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
)

// specKey hashes a spec the way admission does.
func specKey(t *testing.T, spec string) string {
	t.Helper()
	s, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", spec, err)
	}
	return s.Hash()
}

// writeJournal crafts a journal under dir from the given records,
// simulating what a crashed daemon left behind.
func writeJournal(t *testing.T, dir string, recs ...durable.Record) {
	t.Helper()
	j, old, _, err := durable.OpenJournalDir(nil, dir, durable.JournalOptions{})
	if err != nil {
		t.Fatalf("OpenJournalDir: %v", err)
	}
	if len(old) != 0 {
		t.Fatalf("journal at %s already has %d records", dir, len(old))
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func submitRec(id string, seq int, tenant, spec, key string) durable.Record {
	return durable.Record{
		Op: durable.OpSubmit, Job: id, Seq: seq, Tenant: tenant,
		Key: key, Spec: json.RawMessage(spec),
	}
}

func TestDurableRestartServesIdenticalManifestFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-0"}`

	a := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	_, st := a.submit(t, spec)
	fin := a.await(t, st.ID)
	if fin.State != JobOK {
		t.Fatalf("first run finished %s, want ok", fin.State)
	}
	_, want := a.get(t, "/v1/jobs/"+st.ID+"/manifest")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A fresh process with a cold memory cache must serve the identical
	// bytes from the durable store.
	b := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	code, st2 := b.submit(t, spec)
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("restart resubmit: code %d cacheHit %v, want 200 cache hit", code, st2.CacheHit)
	}
	_, got := b.get(t, "/v1/jobs/"+st2.ID+"/manifest")
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest across restart differs:\n%s\nvs\n%s", got, want)
	}
	if hits := b.srv.CacheStats().DiskHits; hits < 1 {
		t.Errorf("disk hits = %d, want >= 1 (memory cache was cold)", hits)
	}
}

func TestRecoveryRequeuesJobsQueuedAtCrash(t *testing.T) {
	dir := t.TempDir()
	s1, s2 := `{"experiment": "exp-1"}`, `{"experiment": "exp-2"}`
	writeJournal(t, dir,
		submitRec("j-000001", 1, "default", s1, specKey(t, s1)),
		submitRec("j-000002", 2, "default", s2, specKey(t, s2)),
		// A duplicate submission of s1 that had coalesced pre-crash.
		submitRec("j-000003", 3, "default", s1, specKey(t, s1)),
	)

	d := newTestDaemon(t, Config{Workers: 2, DataDir: dir})
	for _, id := range []string{"j-000001", "j-000002", "j-000003"} {
		fin := d.await(t, id)
		if fin.State != JobOK || !fin.Recovered {
			t.Errorf("recovered job %s finished %+v, want ok and recovered", id, fin)
		}
	}
	_, text := d.get(t, "/v1/metrics")
	if got := promValue(t, string(text), `apusimd_recovered_jobs_total{outcome="requeued"}`); got != 3 {
		t.Errorf("requeued recoveries = %g, want 3", got)
	}
	// New admissions must not collide with replayed job IDs: the
	// sequence resumes past them, and the journal above fills segment 1,
	// so this boot's generation is 2.
	_, st := d.submit(t, `{"experiment": "exp-3"}`)
	if st.ID != "j-2-000004" {
		t.Errorf("post-recovery admission got ID %s, want j-2-000004", st.ID)
	}
}

// copyDir copies the regular files under src into dst, keeping the
// layout: the data dir as a crash at this moment would leave it.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// TestRestartNeverReissuesACacheHitsID pins job IDs as unique across
// boots of a data dir. A cache hit takes an ID but is never journaled,
// so after a crash the next boot's sequence resumes past the journaled
// jobs only; the boot generation in the ID keeps a fresh job from taking
// the hit's ID, so a client holding it gets a 404, not another job.
func TestRestartNeverReissuesACacheHitsID(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-0"}`
	a := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	_, first := a.submit(t, spec)
	a.await(t, first.ID)
	code, hit := a.submit(t, spec)
	if code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmit: code %d cacheHit %v, want a 200 cache hit", code, hit.CacheHit)
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)

	b := newTestDaemon(t, Config{Workers: 1, DataDir: crashed})
	_, fresh := b.submit(t, `{"experiment": "exp-gated"}`)
	if fresh.ID == hit.ID || fresh.ID == first.ID {
		t.Fatalf("restarted daemon reissued ID %s (cache hit %s, recovered job %s)", fresh.ID, hit.ID, first.ID)
	}
	if code, body := b.get(t, "/v1/jobs/"+hit.ID); code != http.StatusNotFound {
		t.Errorf("GET the hit's ID %s after the crash: %d %s, want 404", hit.ID, code, body)
	}
	if st := b.await(t, first.ID); st.State != JobOK || !st.Recovered {
		t.Errorf("recovered job %s: %+v, want ok and recovered under its own ID", first.ID, st)
	}
}

// TestDrainCheckpointSkipsCacheHits pins that checkpoints journal what
// admission journals: a drain after N cache hits leaves no record of
// them, while the job that ran keeps its submit and done records.
func TestDrainCheckpointSkipsCacheHits(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-0"}`
	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	_, ran := d.submit(t, spec)
	d.await(t, ran.ID)
	hits := make(map[string]bool)
	for i := 0; i < 5; i++ {
		code, st := d.submit(t, spec)
		if code != http.StatusOK || !st.CacheHit {
			t.Fatalf("resubmit %d: code %d cacheHit %v, want a 200 cache hit", i, code, st.CacheHit)
		}
		hits[st.ID] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	recs, _, _, err := durable.ReplayDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[durable.Op]bool)
	for _, rec := range recs {
		if hits[rec.Job] {
			t.Errorf("checkpoint holds a %s record for cache hit %s", rec.Op, rec.Job)
		}
		if rec.Job == ran.ID {
			ops[rec.Op] = true
		}
	}
	if !ops[durable.OpSubmit] || !ops[durable.OpDone] {
		t.Errorf("checkpoint records for the job that ran: %v, want submit and done", ops)
	}
}

func TestRecoveryParksStartedJobsUntilFetched(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-4"}`
	writeJournal(t, dir,
		submitRec("j-000001", 1, "default", spec, specKey(t, spec)),
		durable.Record{Op: durable.OpStart, Job: "j-000001"},
	)

	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	// The job must NOT be running: it was mid-simulation at the crash, and
	// eagerly re-running it could crash-loop the daemon.
	code, body := d.get(t, "/v1/jobs/j-000001")
	if code != http.StatusOK {
		t.Fatalf("GET recovered job: %d: %s", code, body)
	}
	_, text := d.get(t, "/v1/metrics")
	if got := promValue(t, string(text), `apusimd_recovered_jobs_total{outcome="interrupted"}`); got != 1 {
		t.Errorf("interrupted recoveries = %g, want 1", got)
	}
	// That fetch re-queued it; it now runs to completion transparently.
	fin := d.await(t, "j-000001")
	if fin.State != JobOK || !fin.Recovered {
		t.Fatalf("interrupted job finished %+v, want ok and recovered", fin)
	}
}

// TestInterruptedJobCoalescesOntoInFlightRun covers the fetch-time
// re-queue's coalesce branch: an interrupted job fetched while an
// identical fresh run is in flight waits on that run instead of taking a
// queue slot, and ends with the leader's manifest bytes.
func TestInterruptedJobCoalescesOntoInFlightRun(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-gated"}`
	writeJournal(t, dir,
		submitRec("j-000001", 1, "default", spec, specKey(t, spec)),
		durable.Record{Op: durable.OpStart, Job: "j-000001"},
	)
	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	code, leader := d.submit(t, spec)
	if code != http.StatusAccepted || leader.Coalesced {
		t.Fatalf("fresh submit: code %d status %+v, want a leading 202", code, leader)
	}

	code, body := d.get(t, "/v1/jobs/j-000001")
	if code != http.StatusOK {
		t.Fatalf("GET interrupted job: %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || !st.Coalesced {
		t.Fatalf("re-queued interrupted job %+v, want queued and coalesced", st)
	}

	close(d.gate)
	d.gate = make(chan struct{})
	lf, ff := d.await(t, leader.ID), d.await(t, "j-000001")
	if lf.State != JobOK || ff.State != JobOK {
		t.Fatalf("leader %s / re-queued job %s, want both ok", lf.State, ff.State)
	}
	_, m1 := d.get(t, "/v1/jobs/"+leader.ID+"/manifest")
	_, m2 := d.get(t, "/v1/jobs/j-000001/manifest")
	if len(m1) == 0 || !bytes.Equal(m1, m2) {
		t.Fatalf("re-queued job's manifest differs from the leader's:\n%s\nvs\n%s", m2, m1)
	}
}

// TestInterruptedJobFinishesFromStoredResult covers the fetch-time
// re-queue's stored-result branch: once an identical run has stored its
// result, fetching the interrupted job finishes it from the store without
// running it again.
func TestInterruptedJobFinishesFromStoredResult(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-3"}`
	writeJournal(t, dir,
		submitRec("j-000001", 1, "default", spec, specKey(t, spec)),
		durable.Record{Op: durable.OpStart, Job: "j-000001"},
	)
	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	_, fresh := d.submit(t, spec)
	if fin := d.await(t, fresh.ID); fin.State != JobOK {
		t.Fatalf("fresh run finished %s, want ok", fin.State)
	}
	_, want := d.get(t, "/v1/jobs/"+fresh.ID+"/manifest")
	const okDone = `apusimd_jobs_completed_total{state="ok"}`
	_, text := d.get(t, "/v1/metrics")
	before := promValue(t, string(text), okDone)

	fin := d.await(t, "j-000001")
	if fin.State != JobOK || !fin.Recovered {
		t.Fatalf("interrupted job finished %+v, want ok and recovered", fin)
	}
	// Finishing from the store is a completion like any other.
	_, text = d.get(t, "/v1/metrics")
	if after := promValue(t, string(text), okDone); after != before+1 {
		t.Errorf("%s went from %g to %g, want +1", okDone, before, after)
	}
	for _, tr := range fin.Transitions {
		if tr.State == JobRunning {
			t.Fatalf("interrupted job ran again (transitions %+v), want it finished from the store", fin.Transitions)
		}
	}
	_, got := d.get(t, "/v1/jobs/j-000001/manifest")
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("manifest = %s, want the stored bytes %s", got, want)
	}
}

func TestRecoveryFinishesStartedJobFromStoreWithoutRerun(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-5"}`
	key := specKey(t, spec)
	manifest := []byte(`{"schema":"apusim-run-manifest/v1","synthetic":true}`)
	store, err := durable.OpenStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, durable.Entry{State: string(JobOK), Attempts: 2, Manifest: manifest}); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir,
		submitRec("j-000001", 1, "default", spec, key),
		durable.Record{Op: durable.OpStart, Job: "j-000001"},
	)

	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	fin := d.await(t, "j-000001")
	if fin.State != JobOK || fin.Attempts != 2 {
		t.Fatalf("job finished %+v, want ok with the stored result's 2 attempts", fin)
	}
	_, got := d.get(t, "/v1/jobs/j-000001/manifest")
	if !bytes.Equal(got, manifest) {
		t.Fatalf("manifest = %s, want the stored bytes verbatim", got)
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), `apusimd_recovered_jobs_total{outcome="from_cache"}`); v != 1 {
		t.Errorf("from_cache recoveries = %g, want 1", v)
	}
}

func TestRecoveredTerminalJobServesManifestFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-6"}`

	a := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	_, st := a.submit(t, spec)
	a.await(t, st.ID)
	_, want := a.get(t, "/v1/jobs/"+st.ID+"/manifest")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = a.srv.Drain(ctx)

	// The restarted daemon recreates the finished job record (same ID)
	// and serves its manifest from the store by content address.
	b := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	code, body := b.get(t, "/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET recovered terminal job: %d: %s", code, body)
	}
	var rec JobStatus
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != JobOK || !rec.Recovered || !rec.HasManifest {
		t.Fatalf("recovered terminal job status %+v, want ok/recovered/has_manifest", rec)
	}
	code, got := b.get(t, "/v1/jobs/"+st.ID+"/manifest")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("manifest fetch after restart: code %d, identical %v", code, bytes.Equal(got, want))
	}
}

func TestWorkerPanicFailsJobNotDaemon(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	d.srv.testHookJob = func(job *Job) {
		if job.spec.Experiment == "exp-7" {
			panic("synthetic job panic")
		}
	}
	_, st := d.submit(t, `{"experiment": "exp-7"}`)
	fin := d.await(t, st.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "synthetic job panic") {
		t.Fatalf("panicked job finished %+v, want failed with the panic message", fin)
	}
	// The (single) worker survived and still serves jobs.
	_, st2 := d.submit(t, `{"experiment": "exp-8"}`)
	if fin2 := d.await(t, st2.ID); fin2.State != JobOK {
		t.Fatalf("job after panic finished %s, want ok", fin2.State)
	}
	_, text := d.get(t, "/v1/metrics")
	if v := promValue(t, string(text), "apusimd_worker_panics_total"); v < 1 {
		t.Errorf("worker panics = %g, want >= 1", v)
	}
}

func TestListStatusFilter(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	_, running := d.submit(t, `{"experiment": "exp-gated"}`)
	_, done := d.submit(t, `{"experiment": "exp-9", "no_cache": true}`)

	// The gated job owns the only worker, so exp-9 stays queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := d.get(t, "/v1/jobs/"+running.ID); code != http.StatusOK {
			t.Fatal("status fetch failed")
		}
		var st JobStatus
		_, body := d.get(t, "/v1/jobs/"+running.ID)
		_ = json.Unmarshal(body, &st)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gated job never started running (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	list := func(q string) (int, []JobStatus) {
		code, body := d.get(t, "/v1/jobs"+q)
		var out struct {
			Jobs []JobStatus `json:"jobs"`
		}
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("decoding list: %v", err)
			}
		}
		return code, out.Jobs
	}
	if code, jobs := list("?status=running"); code != http.StatusOK || len(jobs) != 1 || jobs[0].ID != running.ID {
		t.Errorf("?status=running: code %d jobs %+v, want exactly the gated job", code, jobs)
	}
	if code, jobs := list("?status=queued"); code != http.StatusOK || len(jobs) != 1 || jobs[0].ID != done.ID {
		t.Errorf("?status=queued: code %d jobs %+v, want exactly the queued job", code, jobs)
	}
	if code, _ := list("?status=sucess"); code != http.StatusBadRequest {
		t.Errorf("unknown status filter: code %d, want 400", code)
	}
	if code, jobs := list(""); code != http.StatusOK || len(jobs) != 2 {
		t.Errorf("unfiltered list: code %d, %d jobs, want 2", code, len(jobs))
	}
	// Stable submission order, filtered or not.
	if _, jobs := list(""); jobs[0].ID != running.ID || jobs[1].ID != done.ID {
		t.Errorf("list order %s, %s; want submission order", jobs[0].ID, jobs[1].ID)
	}
}

func TestLoadShed429CarriesRetryAfter(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1})
	_, _ = d.submit(t, `{"experiment": "exp-gated"}`)
	// Wait for the gated job to occupy the worker, then fill the queue.
	time.Sleep(20 * time.Millisecond)
	_, _ = d.submit(t, `{"experiment": "exp-0"}`)

	resp, err := d.http.Client().Post(d.http.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "exp-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", ra)
	}
}

// TestSubmitStormUnderConcurrentDrain races a storm of submissions
// against Drain: no job may be accepted and then lost.
func TestSubmitStormUnderConcurrentDrain(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, QueueDepth: 64})

	var mu sync.Mutex
	var accepted []string
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				spec := fmt.Sprintf(`{"experiment": "exp-%d", "seed": %d}`, (g+i)%10, g*100+i)
				code, st := d.submit(t, spec)
				if code == http.StatusAccepted || code == http.StatusOK {
					mu.Lock()
					accepted = append(accepted, st.ID)
					mu.Unlock()
				} else if code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
					t.Errorf("submit: unexpected status %d", code)
				}
			}
		}()
	}
	// Let the storm get going, then drain mid-flight.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := d.srv.Drain(ctx)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}

	// Every accepted job reached a terminal state — accepted-then-lost is
	// the bug class this guards against.
	for _, id := range accepted {
		code, body := d.get(t, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("accepted job %s not found after drain: %d", id, code)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Errorf("accepted job %s stuck in %s after drain: %s", id, st.State, body)
		}
	}
}

// TestStoredEntryInUncachedStateIsNeverServed plants a checksum-valid
// store entry whose state is one the service never caches. Served, it
// would finish the job in a state without a completion counter; instead
// every submission of its spec simulates afresh.
func TestStoredEntryInUncachedStateIsNeverServed(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-fail"}`
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	entry := durable.EncodeEntry(durable.Entry{State: string(JobQueued), Attempts: 1, Manifest: []byte(`{}`)})
	name := strings.TrimPrefix(specKey(t, spec), "sha256:") + ".entry"
	if err := os.WriteFile(filepath.Join(dir, "cache", name), entry, 0o644); err != nil {
		t.Fatal(err)
	}

	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	for i := 1; i <= 2; i++ {
		code, st := d.submit(t, spec)
		if code != http.StatusAccepted || st.CacheHit {
			t.Fatalf("submission %d: code %d cache hit %v, want a fresh 202", i, code, st.CacheHit)
		}
		if fin := d.await(t, st.ID); fin.State != JobFailed || fin.Attempts == 0 {
			t.Fatalf("submission %d finished %+v, want a run that failed", i, fin)
		}
	}
	if st := d.srv.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("cache stats %+v, want 0 hits and 2 misses", st)
	}
}

// TestRecoveredDoneRecordInNonTerminalStateFails replays a done record
// whose state is not terminal. The job must not stay in that state for
// good: it recovers failed, naming the state, as a job whose spec no
// longer parses does.
func TestRecoveredDoneRecordInNonTerminalStateFails(t *testing.T) {
	dir := t.TempDir()
	spec := `{"experiment": "exp-4"}`
	writeJournal(t, dir,
		submitRec("j-000001", 1, "default", spec, specKey(t, spec)),
		durable.Record{Op: durable.OpDone, Job: "j-000001", State: string(JobQueued), Attempts: 1},
	)

	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	_, body := d.get(t, "/v1/jobs/j-000001")
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status %q: %v", body, err)
	}
	if st.State != JobFailed || !st.Recovered || !strings.Contains(st.Error, `"queued"`) {
		t.Fatalf("recovered job %+v, want failed and recovered, with an error naming \"queued\"", st)
	}
	_, text := d.get(t, "/v1/metrics")
	if got := promValue(t, string(text), `apusimd_recovered_jobs_total{outcome="failed"}`); got != 1 {
		t.Errorf("failed recoveries = %g, want 1", got)
	}
}

// TestJournalWithTraceFieldsRecoversTheSame boots on a crash copy of a
// data dir whose submit records still carry "trace" and "coalesced"
// (testdata/datadir-trace-field): one job done, a started job with a
// follower, and a queued job with a follower. Recovery derives every
// trace ID instead of reading it, so the job IDs, trace IDs and recovery
// outcomes below, which are what that data dir recovered to when the
// journal stored both fields, must hold in the job JSON, the log lines
// and /trace. The boot checkpoint rewrites the live jobs without either
// field.
func TestJournalWithTraceFieldsRecoversTheSame(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, "testdata/datadir-trace-field", dir)
	var logs syncBuffer
	d := newTestDaemon(t, Config{Workers: 1, DataDir: dir, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})

	want := []struct{ id, trace, outcome string }{
		{"j-1-000001", "cef24c1a48050ddc", "completed"},
		{"j-1-000002", "a46b40a7c0996bc9", "interrupted"},
		{"j-1-000003", "dee08b9a6f611802", "interrupted"},
		{"j-1-000004", "c83fc6ab31f14171", "requeued"},
		{"j-1-000005", "dad9cbb0584dbfaa", "requeued"},
	}
	traces := make(map[string]string)
	for _, w := range want {
		traces[w.id] = w.trace
	}

	// The boot checkpoint is the data dir's only segment now, and every
	// record written since boot is one of its own.
	segs, err := filepath.Glob(filepath.Join(dir, "journal.*"))
	if err != nil || len(segs) != 1 || filepath.Base(segs[0]) != "journal.000002" {
		t.Fatalf("segments after boot %v (%v), want the boot checkpoint journal.000002 alone", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(seg, []byte(`"op":"submit"`)); n != 4 {
		t.Errorf("boot checkpoint holds %d submit records, want 4 (jobs 2-5)", n)
	}
	if bytes.Contains(seg, []byte(`"trace"`)) || bytes.Contains(seg, []byte(`"coalesced"`)) {
		t.Errorf("boot checkpoint stores trace or coalesced:\n%s", seg)
	}

	for _, id := range []string{"j-1-000004", "j-1-000005"} {
		if fin := d.await(t, id); fin.State != JobOK || fin.Coalesced != (id == "j-1-000005") {
			t.Errorf("requeued job %s finished %+v, want ok (the second coalesced)", id, fin)
		}
	}
	for _, w := range want {
		_, body := d.get(t, "/v1/jobs/"+w.id)
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil || st.TraceID != w.trace || !st.Recovered {
			t.Errorf("job %s: %s (%v), want recovered with trace_id %s", w.id, body, err, w.trace)
		}
		_, body = d.get(t, "/v1/jobs/"+w.id+"/trace")
		var tv traceView
		if err := json.Unmarshal(body, &tv); err != nil || tv.Job != w.id || tv.TraceID != w.trace {
			t.Errorf("trace of %s: %s (%v), want trace_id %s", w.id, body, err, w.trace)
		}
	}
	_, st := d.submit(t, `{"experiment": "exp-5"}`)
	if st.ID != "j-2-000006" {
		t.Errorf("first admission after boot got ID %s, want j-2-000006", st.ID)
	}

	var recovered []string
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			Job     string `json:"job_id"`
			Trace   string `json:"trace_id"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if want, ok := traces[rec.Job]; ok && rec.Trace != want {
			t.Errorf("log line %q carries trace_id %s, want %s", line, rec.Trace, want)
		}
		if rec.Msg == "job recovered" {
			recovered = append(recovered, rec.Job+" "+rec.Trace+" "+rec.Outcome)
		}
	}
	var wantRecovered []string
	for _, w := range want {
		wantRecovered = append(wantRecovered, w.id+" "+w.trace+" "+w.outcome)
	}
	if strings.Join(recovered, "\n") != strings.Join(wantRecovered, "\n") {
		t.Errorf("recovery log:\n%s\nwant:\n%s", strings.Join(recovered, "\n"), strings.Join(wantRecovered, "\n"))
	}
}
