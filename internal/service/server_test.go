package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ras"
	"repro/internal/runner"
)

// testRegistry builds a registry of ten fast deterministic experiments
// (exp-0 … exp-9), one failing experiment, and one gated experiment that
// blocks until the returned channel is closed.
func testRegistry() (*runner.Registry, chan struct{}) {
	reg := runner.NewRegistry()
	for i := 0; i < 10; i++ {
		i := i
		reg.MustRegister(runner.Experiment{
			ID:   fmt.Sprintf("exp-%d", i),
			Desc: "fast deterministic test experiment",
			Run: func(ctx *runner.Ctx) (string, error) {
				return fmt.Sprintf("point %d simulated", i), nil
			},
		})
	}
	reg.MustRegister(runner.Experiment{
		ID:   "exp-fail",
		Desc: "always fails",
		Run: func(ctx *runner.Ctx) (string, error) {
			return "", fmt.Errorf("synthetic failure")
		},
	})
	gate := make(chan struct{})
	reg.MustRegister(runner.Experiment{
		ID:   "exp-gated",
		Desc: "blocks until the test releases it",
		Run: func(ctx *runner.Ctx) (string, error) {
			<-gate
			return "released", nil
		},
	})
	return reg, gate
}

type testDaemon struct {
	srv  *Server
	http *httptest.Server
	gate chan struct{}
}

func newTestDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	reg, gate := testRegistry()
	cfg.Registry = reg
	cfg.FaultPlanRun = func(ctx *runner.Ctx, plan *ras.Plan) (string, error) {
		return fmt.Sprintf("plan seed %d, %d faults", plan.Seed, len(plan.Faults)), nil
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 30 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	d := &testDaemon{srv: s, http: hs, gate: gate}
	t.Cleanup(func() {
		close(d.gate) // tests that already released the gate swap in a fresh one
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		hs.Close()
	})
	return d
}

func (d *testDaemon) submit(t *testing.T, spec string, hdr ...string) (int, JobStatus) {
	t.Helper()
	req, err := http.NewRequest("POST", d.http.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := d.http.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return resp.StatusCode, JobStatus{}
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding submit response %q: %v", body, err)
	}
	return resp.StatusCode, st
}

func (d *testDaemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := d.http.Client().Get(d.http.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// await polls a job until it reaches a terminal state.
func (d *testDaemon) await(t *testing.T, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := d.get(t, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d: %s", id, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	cases := []struct {
		spec string
		code int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"experiment": "no-such-experiment"}`, http.StatusBadRequest},
		{`{"experiment": "exp-0", "bogus_field": 1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _ := d.submit(t, tc.spec); code != tc.code {
			t.Errorf("submit %s: status %d, want %d", tc.spec, code, tc.code)
		}
	}
}

func TestJobLifecycleAndManifest(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	code, st := d.submit(t, `{"experiment": "exp-0"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.State != JobQueued && st.State != JobRunning {
		t.Errorf("fresh job state %s, want queued/running", st.State)
	}
	fin := d.await(t, st.ID)
	if fin.State != JobOK || !fin.HasManifest || fin.Attempts != 1 {
		t.Fatalf("final status %+v, want ok with a manifest after 1 attempt", fin)
	}
	if len(fin.Transitions) != 3 || fin.Transitions[0].State != JobQueued ||
		fin.Transitions[1].State != JobRunning || fin.Transitions[2].State != JobOK {
		t.Errorf("transitions %+v, want queued → running → ok", fin.Transitions)
	}
	code, manifest := d.get(t, "/v1/jobs/"+st.ID+"/manifest")
	if code != http.StatusOK {
		t.Fatalf("manifest fetch: status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal(manifest, &m); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if m["schema"] != "apusim-run-manifest/v1" {
		t.Errorf("manifest schema = %v", m["schema"])
	}
}

func TestFailedJobHasNoManifestToCache(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	_, st := d.submit(t, `{"experiment": "exp-fail"}`)
	fin := d.await(t, st.ID)
	if fin.State != JobFailed || fin.Error == "" {
		t.Fatalf("final status %+v, want failed with an error", fin)
	}
	// A failure is never served from cache: resubmitting runs again.
	_, st2 := d.submit(t, `{"experiment": "exp-fail"}`)
	fin2 := d.await(t, st2.ID)
	if fin2.CacheHit {
		t.Error("failed result was cached and reused")
	}
}

func TestCacheHitReturnsIdenticalManifest(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, first := d.submit(t, `{"experiment": "exp-1"}`)
	d.await(t, first.ID)

	code, second := d.submit(t, `{"experiment": "exp-1"}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 (served from cache)", code)
	}
	if !second.CacheHit || second.State != JobOK {
		t.Fatalf("resubmit status %+v, want a terminal cache hit", second)
	}
	_, m1 := d.get(t, "/v1/jobs/"+first.ID+"/manifest")
	_, m2 := d.get(t, "/v1/jobs/"+second.ID+"/manifest")
	if !bytes.Equal(m1, m2) {
		t.Errorf("cached manifest differs from fresh run:\n fresh: %s\ncached: %s", m1, m2)
	}
	if st := d.srv.CacheStats(); st.Hits != 1 {
		t.Errorf("cache stats %+v, want exactly 1 hit", st)
	}
}

// TestCacheHitAllocationBudget bounds the heap cost of the path result
// caching exists for: one POST /v1/jobs answered 200 from the stored
// result, served in-process through Handler. The count includes building
// the request and the recorder, about a dozen allocations.
func TestCacheHitAllocationBudget(t *testing.T) {
	const budget = 70
	d := newTestDaemon(t, Config{Workers: 1})
	const spec = `{"experiment": "exp-1"}`
	_, first := d.submit(t, spec)
	d.await(t, first.ID)
	h := d.srv.Handler()
	hit := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(spec))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("resubmit: status %d, want 200 (served from cache): %s", rec.Code, rec.Body)
		}
	}
	n := testing.AllocsPerRun(200, hit)
	t.Logf("a cache hit made %.0f allocations, budget %d", n, budget)
	if n > budget {
		t.Errorf("a cache hit made %.0f allocations, over the budget of %d", n, budget)
	}
}

// TestWriteJSONMatchesDirectEncoder pins writeJSON's pooled buffers to the
// bytes an indenting encoder writing to the response directly sends, for
// a body too large to go back to the pool and for small ones around it.
func TestWriteJSONMatchesDirectEncoder(t *testing.T) {
	big := make([]string, 4000)
	for i := range big {
		big[i] = fmt.Sprintf("job-%06d", i)
	}
	for _, v := range []any{
		JobStatus{ID: "j-1-000001", State: JobOK, Transitions: []Transition{{State: JobQueued}}},
		map[string][]string{"jobs": big},
		apiError{Error: `unknown job "<x>"`},
		JobStatus{ID: "j-1-000002", State: JobQueued},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusTeapot, v)
		if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("writeJSON sent status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("writeJSON body differs from the direct encoder's:\ngot  %.200q\nwant %.200q", rec.Body.Bytes(), want.Bytes())
		}
	}
}

func TestNoCacheBypassesBothDirections(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, warm := d.submit(t, `{"experiment": "exp-2"}`)
	d.await(t, warm.ID)

	code, st := d.submit(t, `{"experiment": "exp-2", "no_cache": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("no_cache submit: status %d, want 202 (must simulate fresh)", code)
	}
	fin := d.await(t, st.ID)
	if fin.CacheHit || fin.Coalesced {
		t.Errorf("no_cache job reused a result: %+v", fin)
	}
	// And the bypass run still reproduces the cached bytes — that is the
	// point of a validation re-run.
	_, m1 := d.get(t, "/v1/jobs/"+warm.ID+"/manifest")
	_, m2 := d.get(t, "/v1/jobs/"+st.ID+"/manifest")
	if !bytes.Equal(m1, m2) {
		t.Errorf("no_cache rerun produced different bytes:\n cached: %s\n fresh: %s", m1, m2)
	}
}

func TestCoalescingWaitsOnInFlightRun(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, leader := d.submit(t, `{"experiment": "exp-gated"}`)
	code, follower := d.submit(t, `{"experiment": "exp-gated"}`)
	if code != http.StatusAccepted || !follower.Coalesced {
		t.Fatalf("duplicate submit: code %d status %+v, want an accepted coalesced job", code, follower)
	}
	close(d.gate)
	d.gate = make(chan struct{}) // cleanup closes the fresh one

	lf := d.await(t, leader.ID)
	ff := d.await(t, follower.ID)
	if lf.State != JobOK || ff.State != JobOK {
		t.Fatalf("leader %s / follower %s, want both ok", lf.State, ff.State)
	}
	_, m1 := d.get(t, "/v1/jobs/"+leader.ID+"/manifest")
	_, m2 := d.get(t, "/v1/jobs/"+follower.ID+"/manifest")
	if !bytes.Equal(m1, m2) {
		t.Errorf("coalesced follower's manifest differs from the leader's")
	}
	if st := d.srv.CacheStats(); st.Hits != 0 {
		t.Errorf("coalescing counted as a cache hit: %+v", st)
	}
}

func TestQueueFullRejects(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1})
	// Worker 1 blocks on the gated job; the queue holds exactly one more.
	if code, _ := d.submit(t, `{"experiment": "exp-gated", "no_cache": true}`); code != http.StatusAccepted {
		t.Fatalf("first job rejected")
	}
	// Wait for the worker to pick the first job up so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.srv.mu.Lock()
		running := d.srv.running
		d.srv.mu.Unlock()
		if running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the gated job")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := d.submit(t, `{"experiment": "exp-gated", "no_cache": true}`); code != http.StatusAccepted {
		t.Fatalf("queued job rejected")
	}
	if code, _ := d.submit(t, `{"experiment": "exp-gated", "no_cache": true}`); code != http.StatusTooManyRequests {
		t.Errorf("over-depth submit: status %d, want 429", code)
	}
}

func TestFaultPlanJob(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, st := d.submit(t, `{"seed": 11, "fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 100, "xcd": 1}]}}`)
	fin := d.await(t, st.ID)
	if fin.State != JobOK {
		t.Fatalf("fault-plan job: %+v", fin)
	}
	// The manifest records the ad-hoc experiment's description, which
	// names the effective (folded) seed.
	_, manifest := d.get(t, "/v1/jobs/"+st.ID+"/manifest")
	if !bytes.Contains(manifest, []byte("ad-hoc RAS fault plan (1 faults, seed 11)")) {
		t.Errorf("manifest does not show the folded seed: %s", manifest)
	}
}

func TestWatchStreamsTransitions(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, st := d.submit(t, `{"experiment": "exp-gated"}`)

	resp, err := d.http.Client().Get(d.http.URL + "/v1/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	close(d.gate)
	d.gate = make(chan struct{})

	var states []JobState
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var js JobStatus
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			t.Fatalf("watch line %q: %v", sc.Text(), err)
		}
		states = append(states, js.State)
	}
	if len(states) == 0 || states[len(states)-1] != JobOK {
		t.Fatalf("watched states %v, want a stream ending in ok", states)
	}
	for i := 1; i < len(states); i++ {
		if states[i-1].Terminal() {
			t.Errorf("stream continued past terminal state: %v", states)
		}
	}
}

func TestDrainRejectsNewWorkAndCompletesOldWork(t *testing.T) {
	reg, gate := testRegistry()
	defer close(gate)
	s, err := New(Config{Registry: reg, Workers: 2, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiment": "exp-3"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	resp, err = http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiment": "exp-4"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: status %d, want 503", resp.StatusCode)
	}
	// The job admitted before the drain finished normally.
	resp, err = http.Get(hs.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fin JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&fin)
	resp.Body.Close()
	if fin.State != JobOK {
		t.Errorf("pre-drain job state %s, want ok", fin.State)
	}
}

func TestForcedDrainCancelsInFlightJobs(t *testing.T) {
	reg, gate := testRegistry()
	defer close(gate)
	s, err := New(Config{Registry: reg, Workers: 1, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	submit := func(spec string) JobStatus {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return st
	}
	running := submit(`{"experiment": "exp-gated", "no_cache": true}`)
	queued := submit(`{"experiment": "exp-5", "no_cache": true}`)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("forced drain reported a clean exit")
	}
	for _, id := range []string{running.ID, queued.ID} {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var fin JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&fin)
		resp.Body.Close()
		if fin.State != JobCancelled {
			t.Errorf("job %s state %s, want cancelled after forced drain", id, fin.State)
		}
	}
}

// promValue extracts one sample's value from Prometheus text exposition.
func promValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("parsing sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in metrics:\n%s", sample, text)
	return 0
}

// TestEndToEndOverlappingSubmissions is the acceptance test: 200
// overlapping submissions drawn from 10 unique specs. Exactly one
// submission per unique spec simulates; every other one must reuse its
// result (≥ 90% reuse), every manifest for a spec must be byte-identical,
// and /v1/metrics must agree with what happened.
func TestEndToEndOverlappingSubmissions(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 4})
	const (
		uniqueSpecs = 10
		perSpec     = 20
		total       = uniqueSpecs * perSpec
	)

	var wg sync.WaitGroup
	ids := make([][]string, uniqueSpecs)
	var mu sync.Mutex
	for u := 0; u < uniqueSpecs; u++ {
		for c := 0; c < perSpec; c++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				code, st := d.submit(t, fmt.Sprintf(`{"experiment": "exp-%d"}`, u))
				if code != http.StatusAccepted && code != http.StatusOK {
					t.Errorf("submit exp-%d: status %d", u, code)
					return
				}
				mu.Lock()
				ids[u] = append(ids[u], st.ID)
				mu.Unlock()
			}(u)
		}
	}
	wg.Wait()

	var reused int
	for u := 0; u < uniqueSpecs; u++ {
		if len(ids[u]) != perSpec {
			t.Fatalf("spec %d: %d submissions accepted, want %d", u, len(ids[u]), perSpec)
		}
		var manifests [][]byte
		for _, id := range ids[u] {
			fin := d.await(t, id)
			if fin.State != JobOK {
				t.Fatalf("job %s: state %s", id, fin.State)
			}
			if fin.CacheHit || fin.Coalesced {
				reused++
			}
			_, m := d.get(t, "/v1/jobs/"+id+"/manifest")
			manifests = append(manifests, m)
		}
		for i := 1; i < len(manifests); i++ {
			if !bytes.Equal(manifests[0], manifests[i]) {
				t.Fatalf("spec %d: manifest %d differs from manifest 0:\n%s\nvs\n%s",
					u, i, manifests[0], manifests[i])
			}
		}
	}

	// Exactly one simulation per unique spec: 190 of 200 reused = 95%.
	if want := total - uniqueSpecs; reused != want {
		t.Errorf("%d of %d submissions reused a result, want %d", reused, total, want)
	}
	if rate := float64(reused) / float64(total); rate < 0.9 {
		t.Errorf("reuse rate %.2f below the 90%% bar", rate)
	}

	// The metrics endpoint must tell the same story.
	code, metrics := d.get(t, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	text := string(metrics)
	hits := promValue(t, text, "apusimd_cache_hits_total")
	coal := promValue(t, text, "apusimd_cache_coalesced_total")
	misses := promValue(t, text, "apusimd_cache_misses_total")
	submitted := promValue(t, text, "apusimd_jobs_submitted_total")
	completedOK := promValue(t, text, `apusimd_jobs_completed_total{state="ok"}`)
	if submitted != total {
		t.Errorf("submitted_total = %g, want %d", submitted, total)
	}
	if misses != uniqueSpecs {
		t.Errorf("cache_misses_total = %g, want %d", misses, uniqueSpecs)
	}
	if hits+coal != float64(total-uniqueSpecs) {
		t.Errorf("hits (%g) + coalesced (%g) = %g, want %d", hits, coal, hits+coal, total-uniqueSpecs)
	}
	if completedOK != total {
		t.Errorf("completed ok = %g, want %d", completedOK, total)
	}
	if cs := d.srv.CacheStats(); float64(cs.Hits) != hits {
		t.Errorf("cache stats hits %d disagree with /v1/metrics %g", cs.Hits, hits)
	}
}
