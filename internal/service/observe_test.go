package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe log sink for capturing slog output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// traceView mirrors the /v1/jobs/{id}/trace response shape the tests
// need.
type traceView struct {
	Schema    string   `json:"schema"`
	Job       string   `json:"job"`
	TraceID   string   `json:"trace_id"`
	State     JobState `json:"state"`
	Lifecycle struct {
		Schema string `json:"schema"`
		Spans  []struct {
			Trace string `json:"trace"`
			Kind  string `json:"kind"`
			Stage string `json:"stage"`
			Name  string `json:"name"`
		} `json:"spans"`
	} `json:"lifecycle"`
}

func TestTraceIDLinksJobAndTraceEndpoint(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, st := d.submit(t, `{"experiment": "exp-0"}`)
	if !traceIDRe.MatchString(st.TraceID) {
		t.Fatalf("submit returned trace_id %q, want 16 hex digits", st.TraceID)
	}
	fin := d.await(t, st.ID)
	if fin.TraceID != st.TraceID {
		t.Fatalf("trace_id changed across lifecycle: %q -> %q", st.TraceID, fin.TraceID)
	}

	code, body := d.get(t, "/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", code, body)
	}
	var tv traceView
	if err := json.Unmarshal(body, &tv); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if tv.Schema != "apusimd-job-trace/v1" {
		t.Errorf("trace schema %q", tv.Schema)
	}
	if tv.TraceID != st.TraceID || tv.Job != st.ID {
		t.Errorf("trace identity %s/%s, want %s/%s", tv.Job, tv.TraceID, st.ID, st.TraceID)
	}
	if tv.Lifecycle.Schema != "apusim-spans/v1" {
		t.Errorf("lifecycle schema %q", tv.Lifecycle.Schema)
	}
	if len(tv.Lifecycle.Spans) < 2 {
		t.Fatalf("lifecycle has %d spans, want a root plus stage children", len(tv.Lifecycle.Spans))
	}
	var sawRoot, sawQueued, sawRunning bool
	for _, sp := range tv.Lifecycle.Spans {
		if sp.Trace != st.TraceID {
			t.Errorf("span %q carries trace %q, want %q", sp.Name, sp.Trace, st.TraceID)
		}
		switch {
		case sp.Kind == "job" && sp.Name == st.ID:
			sawRoot = true
		case sp.Stage == string(JobQueued):
			sawQueued = true
		case sp.Stage == string(JobRunning):
			sawRunning = true
		}
	}
	if !sawRoot || !sawQueued || !sawRunning {
		t.Errorf("lifecycle missing spans: root=%v queued=%v running=%v", sawRoot, sawQueued, sawRunning)
	}

	// A cache hit is a distinct job with its own trace ID, and its trace
	// view still renders (with no running stage — it never ran).
	code, st2 := d.submit(t, `{"experiment": "exp-0"}`)
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("second submit: code %d cacheHit %v", code, st2.CacheHit)
	}
	if st2.TraceID == st.TraceID || !traceIDRe.MatchString(st2.TraceID) {
		t.Errorf("cache-hit trace_id %q should be fresh and well-formed (first was %q)", st2.TraceID, st.TraceID)
	}
	if code, _ := d.get(t, "/v1/jobs/"+st2.ID+"/trace"); code != http.StatusOK {
		t.Errorf("cache-hit trace: status %d", code)
	}
	if code, _ := d.get(t, "/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", code)
	}
}

func TestStageTimingsStamped(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, st := d.submit(t, `{"experiment": "exp-gated"}`)
	// Wait until a worker holds the job, then keep it running a while so
	// run_ns is unambiguously nonzero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := d.get(t, "/v1/jobs/"+st.ID)
		var cur JobStatus
		_ = json.Unmarshal(body, &cur)
		if cur.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(d.gate)
	d.gate = make(chan struct{})
	fin := d.await(t, st.ID)

	if fin.RunNS < int64(10*time.Millisecond) {
		t.Errorf("run_ns = %d, want >= 10ms (job was held running)", fin.RunNS)
	}
	if fin.E2ENS != fin.QueuedNS+fin.RunNS {
		t.Errorf("e2e_ns %d != queued_ns %d + run_ns %d", fin.E2ENS, fin.QueuedNS, fin.RunNS)
	}

	// Cache hits never ran: queue/run stay unstamped, e2e is stamped by
	// the terminal transition.
	_, hit := d.submit(t, `{"experiment": "exp-gated"}`)
	if !hit.CacheHit {
		t.Fatal("expected a cache hit")
	}
	if hit.QueuedNS != 0 || hit.RunNS != 0 {
		t.Errorf("cache hit stamped queued_ns=%d run_ns=%d, want 0/0", hit.QueuedNS, hit.RunNS)
	}
}

func TestDebugEndpointLiveIntrospection(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, st := d.submit(t, `{"experiment": "exp-gated"}`)

	var snap DebugSnapshot
	found := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !found {
		code, body := d.get(t, "/v1/debug")
		if code != http.StatusOK {
			t.Fatalf("GET /v1/debug: status %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("decoding debug snapshot: %v", err)
		}
		for _, w := range snap.Workers {
			if w.Job == st.ID && w.Stage == "simulating" {
				found = true
				if w.Idle {
					t.Error("busy worker marked idle")
				}
				if w.TraceID != st.TraceID {
					t.Errorf("worker trace %q, want %q", w.TraceID, st.TraceID)
				}
				if w.Experiment != "exp-gated" {
					t.Errorf("worker experiment %q", w.Experiment)
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !found {
		t.Fatal("no /v1/debug worker row ever showed the gated job simulating")
	}
	if snap.Schema != "apusimd-debug/v1" {
		t.Errorf("debug schema %q", snap.Schema)
	}
	if len(snap.Workers) != 2 {
		t.Errorf("debug shows %d workers, want 2", len(snap.Workers))
	}
	if snap.Running < 1 {
		t.Errorf("debug running %d, want >= 1", snap.Running)
	}
	if snap.QueueCapacity != 64 {
		t.Errorf("queue capacity %d, want the default 64", snap.QueueCapacity)
	}
	events := map[string]bool{}
	for _, ev := range snap.Flight {
		if ev.Job == st.ID {
			events[ev.Event] = true
			if ev.Trace != st.TraceID {
				t.Errorf("flight event %s carries trace %q, want %q", ev.Event, ev.Trace, st.TraceID)
			}
		}
	}
	if !events["submit"] || !events["start"] {
		t.Errorf("flight recorder missing lifecycle events: %v", events)
	}

	close(d.gate)
	d.gate = make(chan struct{})
	d.await(t, st.ID)
	sawFinish := false
	for time.Now().Before(deadline) && !sawFinish {
		_, body := d.get(t, "/v1/debug")
		var after DebugSnapshot
		_ = json.Unmarshal(body, &after)
		for _, ev := range after.Flight {
			if ev.Job == st.ID && ev.Event == "finish" {
				sawFinish = true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawFinish {
		t.Error("flight recorder never showed the finish event")
	}
}

func TestWatchHeartbeats(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, watchHeartbeat: 15 * time.Millisecond})
	_, st := d.submit(t, `{"experiment": "exp-gated"}`)

	resp, err := d.http.Client().Get(d.http.URL + "/v1/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()

	heartbeats := 0
	released := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Heartbeat bool     `json:"heartbeat"`
			ID        string   `json:"id"`
			State     JobState `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("watch line %q: %v", sc.Text(), err)
		}
		if line.Heartbeat {
			heartbeats++
			if line.ID != st.ID {
				t.Errorf("heartbeat for job %q, want %q", line.ID, st.ID)
			}
			// Two heartbeats prove the keep-alive cadence; then release
			// the job so the stream terminates normally.
			if heartbeats == 2 && !released {
				released = true
				close(d.gate)
				d.gate = make(chan struct{})
			}
			continue
		}
		if line.State.Terminal() {
			break
		}
	}
	if heartbeats < 2 {
		t.Errorf("saw %d heartbeats, want >= 2 while the job was gated", heartbeats)
	}
}

func TestShedEmitsStructuredLogAndTenantCounter(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, Logger: logger})

	code, alice := d.submit(t, `{"experiment": "exp-gated", "no_cache": true}`, "X-Tenant", "alice")
	if code != http.StatusAccepted {
		t.Fatalf("first alice submit: %d", code)
	}
	// Wait for the single worker to dequeue alice's job, so the one queue
	// slot is free for bob and the queue_full shed is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := d.get(t, "/v1/jobs/"+alice.ID)
		var cur JobStatus
		_ = json.Unmarshal(body, &cur)
		if cur.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alice's job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Queue full: bob takes the single queue slot, carol is shed.
	if code, _ := d.submit(t, `{"experiment": "exp-gated", "no_cache": true}`, "X-Tenant", "bob"); code != http.StatusAccepted {
		t.Fatalf("bob submit: %d", code)
	}
	if code, _ := d.submit(t, `{"experiment": "exp-gated", "no_cache": true}`, "X-Tenant", "carol"); code != http.StatusTooManyRequests {
		t.Fatalf("carol submit: %d, want 429", code)
	}

	_, metrics := d.get(t, "/v1/metrics")
	text := string(metrics)
	if v := promValue(t, text, `apusimd_tenant_sheds_total{reason="queue_full",tenant="carol"}`); v != 1 {
		t.Errorf("carol queue_full sheds = %g, want 1", v)
	}

	logged := logs.String()
	for _, want := range []string{
		`"msg":"submission shed"`,
		`"reason":"queue_full"`,
		`"tenant":"carol"`,
		`"retry_after_s"`,
		`"msg":"job admitted"`,
		`"trace_id"`,
	} {
		if !strings.Contains(logged, want) {
			t.Errorf("structured log missing %s in:\n%s", want, logged)
		}
	}
}

func TestLatencyHistogramsRecorded(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	_, st := d.submit(t, `{"experiment": "exp-3"}`)
	d.await(t, st.ID)
	if code, hit := d.submit(t, `{"experiment": "exp-3"}`); code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("second submit: code %d cacheHit %v", code, hit.CacheHit)
	}

	_, metrics := d.get(t, "/v1/metrics")
	text := string(metrics)
	// The fresh run observed every stage; the cache hit only end-to-end.
	if v := promValue(t, text, `apusimd_job_queue_wait_seconds_count{experiment="exp-3"}`); v != 1 {
		t.Errorf("queue_wait count = %g, want 1", v)
	}
	if v := promValue(t, text, `apusimd_job_run_seconds_count{experiment="exp-3"}`); v != 1 {
		t.Errorf("run count = %g, want 1", v)
	}
	if v := promValue(t, text, `apusimd_job_e2e_seconds_count{experiment="exp-3"}`); v != 2 {
		t.Errorf("e2e count = %g, want 2", v)
	}
	if v := promValue(t, text, `apusimd_tenant_e2e_seconds_count{tenant="default"}`); v != 2 {
		t.Errorf("tenant e2e count = %g, want 2", v)
	}
	// Untouched experiments still expose empty series (pre-registered).
	if v := promValue(t, text, `apusimd_job_e2e_seconds_count{experiment="exp-7"}`); v != 0 {
		t.Errorf("idle experiment e2e count = %g, want 0", v)
	}
}

// TestIdleMetricsExpositionDeterministic is the determinism golden: an
// idle server's /v1/metrics text must be byte-identical across repeated
// scrapes, across worker-pool widths, and against the checked-in golden.
// Regenerate with UPDATE_METRICS_GOLDEN=1 go test ./internal/service/.
func TestIdleMetricsExpositionDeterministic(t *testing.T) {
	scrape := func(workers int) string {
		d := newTestDaemon(t, Config{Workers: workers})
		_, first := d.get(t, "/v1/metrics")
		_, second := d.get(t, "/v1/metrics")
		if !bytes.Equal(first, second) {
			t.Fatalf("repeated scrapes of an idle server differ (workers=%d)", workers)
		}
		return string(first)
	}
	one := scrape(1)
	eight := scrape(8)
	if one != eight {
		t.Fatalf("idle exposition differs across -parallel degrees:\nworkers=1:\n%s\nworkers=8:\n%s", one, eight)
	}

	golden := filepath.Join("testdata", "metrics_idle.golden")
	if os.Getenv("UPDATE_METRICS_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(one), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_METRICS_GOLDEN=1): %v", err)
	}
	if one != string(want) {
		t.Errorf("idle exposition drifted from golden; regenerate with UPDATE_METRICS_GOLDEN=1 if intentional.\ngot:\n%s", one)
	}
}

// TestFlightRecorderWraps pins the ring semantics: once more events than
// slots are recorded, the window holds the most recent ones in sequence
// order.
func TestFlightRecorderWraps(t *testing.T) {
	f := newFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{Event: fmt.Sprintf("e%d", i)})
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", 6+i); ev.Event != want {
			t.Errorf("slot %d = %s, want %s", i, ev.Event, want)
		}
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Errorf("events out of order: %d then %d", evs[i-1].Seq, ev.Seq)
		}
	}
}

func TestTraceIDForDeterministic(t *testing.T) {
	a := traceIDFor("j-000001", "abc")
	if a != traceIDFor("j-000001", "abc") {
		t.Error("traceIDFor is not deterministic")
	}
	if a == traceIDFor("j-000002", "abc") || a == traceIDFor("j-000001", "abd") {
		t.Error("traceIDFor collides across distinct inputs")
	}
	if !traceIDRe.MatchString(a) {
		t.Errorf("traceIDFor %q is not 16 hex digits", a)
	}
}
