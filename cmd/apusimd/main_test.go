package main

// Binary-level tests: each one starts the real daemon on a loopback port
// and drives it over HTTP, the way an operator's client does. The daemon
// is built once per package.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// binDir holds the built daemon; TestMain removes it.
var binDir string

var buildOnce = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "apusimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building apusimd: %v\n%s", err, out)
	}
	return bin, nil
})

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "apusimd-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// daemon is one running apusimd process under test.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string // the pprof listener, when -debug-addr is set
	logPath   string
}

func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "apusimd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-listen", "127.0.0.1:0", "-data-dir", dataDir, "-workers", "1"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting apusimd: %v", err)
	}
	logf.Close()
	d := &daemon{cmd: cmd, logPath: logPath}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })

	// The pprof line, when there is one, is written before the API's.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(d.log(), "\n") {
			if a, ok := strings.CutPrefix(line, "apusimd: pprof on "); ok {
				d.debugAddr = strings.TrimSpace(a)
			}
			if a, ok := strings.CutPrefix(line, "apusimd: listening on "); ok {
				d.addr = strings.TrimSpace(a)
			}
		}
		if d.addr != "" {
			return d
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("apusimd never reported its address; log:\n%s", d.log())
	return nil
}

// log returns everything the daemon has written to stderr so far.
func (d *daemon) log() string {
	b, _ := os.ReadFile(d.logPath)
	return string(b)
}

// drain sends SIGTERM and requires a graceful exit: status 0 and the
// "drained cleanly" line.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("apusimd after SIGTERM: %v; log:\n%s", err, d.log())
	}
	if !strings.Contains(d.log(), "apusimd: drained cleanly") {
		t.Errorf("no \"drained cleanly\" line after SIGTERM; log:\n%s", d.log())
	}
}

// TestRemovedBackoffFlagExits2 pins that job retries run at once: the
// daemon has no backoff flag, and the flag parser refuses the old one.
func TestRemovedBackoffFlagExits2(t *testing.T) {
	// A daemon that accepted the flag would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, buildDaemon(t), "-listen", "127.0.0.1:0", "-retry-backoff", "1s").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("apusimd -retry-backoff 1s: %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined") {
		t.Errorf("output does not reject the flag:\n%s", out)
	}
}

type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	CacheHit   bool   `json:"cache_hit"`
	TraceID    string `json:"trace_id"`
	NonDurable bool   `json:"non_durable"`
	RunNS      int64  `json:"run_ns"`
	E2ENS      int64  `json:"e2e_ns"`
}

func (d *daemon) submit(t *testing.T, spec string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st jobStatus
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
	}
	return resp.StatusCode, st
}

// get fetches path from the API listener.
func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	return getURL(t, "http://"+d.addr+path)
}

func getURL(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// getJSON fetches path and decodes a 200 response into v.
func (d *daemon) getJSON(t *testing.T, path string, v any) {
	t.Helper()
	code, body := d.get(t, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}

// await polls a job until terminal; each poll also un-parks interrupted
// recovered jobs, which is the documented re-run path.
func (d *daemon) await(t *testing.T, id string, patience time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(patience)
	var st jobStatus
	for time.Now().Before(deadline) {
		d.getJSON(t, "/v1/jobs/"+id, &st)
		switch st.State {
		case "ok", "degraded", "violated", "failed", "cancelled":
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q", id, st.State)
	return st
}

// awaitRunning reads the job's ?watch=1 stream until it reports running.
// A job shows as running only after its start record is synced, so from
// then on the journal holds it as started.
func (d *daemon) awaitRunning(t *testing.T, id string) {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + "/v1/jobs/" + id + "?watch=1")
	if err != nil {
		t.Fatalf("watching job %s: %v", id, err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var st jobStatus
		if err := dec.Decode(&st); err != nil {
			t.Fatalf("watching job %s: %v", id, err)
		}
		switch st.State {
		case "running":
			return
		case "queued":
		default:
			t.Fatalf("job %s reached %q before it was seen running", id, st.State)
		}
	}
}

func (d *daemon) metric(t *testing.T, sample string) float64 {
	t.Helper()
	_, body := d.get(t, "/v1/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing metric %s from %q: %v", sample, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", sample)
	return 0
}

// TestDaemonEndToEnd drives one daemon through its serving and
// observability surface: the result cache and its counters, a job's trace
// ID across its JSON, /trace, the flight recorder and the JSON log, the
// latency histograms, pprof on the debug listener only, and a clean
// drain on SIGTERM.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon; skipped in -short")
	}
	d := startDaemon(t, buildDaemon(t), t.TempDir(),
		"-log-format", "json", "-debug-addr", "127.0.0.1:0")
	if d.debugAddr == "" {
		t.Fatalf("no pprof listener reported; log:\n%s", d.log())
	}

	// An identical resubmission is a cache hit with the same manifest
	// bytes, and the counters say so.
	const table1 = `{"experiment": "table1"}`
	code, first := d.submit(t, table1)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", code)
	}
	if fin := d.await(t, first.ID, 15*time.Second); fin.State != "ok" {
		t.Fatalf("table1 finished %s", fin.State)
	}
	code, second := d.submit(t, table1)
	if code != http.StatusOK || !second.CacheHit || second.State != "ok" {
		t.Fatalf("resubmit: %d %+v, want a 200 cache hit in state ok", code, second)
	}
	_, m1 := d.get(t, "/v1/jobs/"+first.ID+"/manifest")
	_, m2 := d.get(t, "/v1/jobs/"+second.ID+"/manifest")
	if !bytes.Equal(m1, m2) {
		t.Error("cached manifest differs from the fresh run's")
	}
	var manifest struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(m1, &manifest); err != nil || manifest.Schema != "apusim-run-manifest/v1" {
		t.Errorf("manifest schema %q (%v), want apusim-run-manifest/v1", manifest.Schema, err)
	}
	for sample, want := range map[string]float64{
		"apusimd_cache_hits_total":                 1,
		"apusimd_cache_misses_total":               1,
		`apusimd_jobs_completed_total{state="ok"}`: 2,
	} {
		if got := d.metric(t, sample); got != want {
			t.Errorf("%s = %g, want %g", sample, got, want)
		}
	}

	// A span-recording job: its trace ID ties its JSON to its /trace view.
	code, st := d.submit(t, `{"experiment": "spanras", "spans": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("spanras submit: %d, want 202", code)
	}
	st = d.await(t, st.ID, 30*time.Second)
	if st.State != "ok" && st.State != "degraded" { // the RAS storm degrades it, deterministically
		t.Fatalf("spanras finished %s", st.State)
	}
	trace := st.TraceID
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(trace) {
		t.Fatalf("trace_id %q is not 16 hex digits", trace)
	}
	if st.E2ENS <= 0 || st.RunNS <= 0 {
		t.Errorf("e2e_ns %d, run_ns %d; want both > 0", st.E2ENS, st.RunNS)
	}

	// The JSON log carries the job's lifecycle lines under its trace ID.
	// The worker writes "job finished" after the job shows as terminal,
	// and after its finish flight event and latency observations, so
	// once that line is there every check below reads settled state.
	var logged map[string]string // message -> trace_id
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		logged = make(map[string]string)
		for _, line := range strings.Split(d.log(), "\n") {
			var rec struct {
				Msg   string `json:"msg"`
				JobID string `json:"job_id"`
				Trace string `json:"trace_id"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.JobID == st.ID {
				logged[rec.Msg] = rec.Trace
			}
		}
		if _, ok := logged["job finished"]; ok || time.Now().After(deadline) {
			break
		}
	}
	for _, msg := range []string{"job started", "job finished"} {
		if logged[msg] != trace {
			t.Errorf("JSON log %q line for job %s carries trace_id %q, want %s; log:\n%s", msg, st.ID, logged[msg], trace, d.log())
		}
	}

	var tr struct {
		Schema    string `json:"schema"`
		TraceID   string `json:"trace_id"`
		Lifecycle struct {
			Schema string `json:"schema"`
			Spans  []struct {
				Trace string `json:"trace"`
				Kind  string `json:"kind"`
			} `json:"spans"`
		} `json:"lifecycle"`
		Simulation []struct {
			Experiment  string          `json:"experiment"`
			Attribution json.RawMessage `json:"attribution"`
		} `json:"simulation"`
	}
	d.getJSON(t, "/v1/jobs/"+st.ID+"/trace", &tr)
	if tr.Schema != "apusimd-job-trace/v1" || tr.TraceID != trace || tr.Lifecycle.Schema != "apusim-spans/v1" {
		t.Errorf("trace view: schema %q, trace_id %q, lifecycle schema %q; want apusimd-job-trace/v1, %s, apusim-spans/v1",
			tr.Schema, tr.TraceID, tr.Lifecycle.Schema, trace)
	}
	jobSpan := false
	for _, s := range tr.Lifecycle.Spans {
		if s.Trace != trace {
			t.Errorf("lifecycle span %+v carries trace %q, want %s", s, s.Trace, trace)
		}
		jobSpan = jobSpan || s.Kind == "job"
	}
	if !jobSpan {
		t.Errorf("no job span among %d lifecycle spans", len(tr.Lifecycle.Spans))
	}
	attributed := false
	for _, e := range tr.Simulation {
		attributed = attributed || e.Experiment == "spanras" && len(e.Attribution) > 0 && string(e.Attribution) != "null"
	}
	if !attributed {
		t.Errorf("trace view has no spanras simulation attribution: %+v", tr.Simulation)
	}

	// The flight recorder holds the job's lifecycle under the same ID.
	var dbg struct {
		Schema        string            `json:"schema"`
		Workers       []json.RawMessage `json:"workers"`
		QueueCapacity int               `json:"queue_capacity"`
		Flight        []struct {
			Event string `json:"event"`
			Job   string `json:"job"`
			Trace string `json:"trace_id"`
		} `json:"flight_recorder"`
	}
	d.getJSON(t, "/v1/debug", &dbg)
	if dbg.Schema != "apusimd-debug/v1" || len(dbg.Workers) < 1 || dbg.QueueCapacity < 1 {
		t.Errorf("debug snapshot: schema %q, %d workers, queue capacity %d", dbg.Schema, len(dbg.Workers), dbg.QueueCapacity)
	}
	events := make(map[string]bool)
	for _, ev := range dbg.Flight {
		if ev.Job != st.ID {
			continue
		}
		events[ev.Event] = true
		if ev.Trace != trace {
			t.Errorf("flight event %s carries trace %q, want %s", ev.Event, ev.Trace, trace)
		}
	}
	for _, ev := range []string{"submit", "start", "finish"} {
		if !events[ev] {
			t.Errorf("no %s flight event for job %s (have %v)", ev, st.ID, events)
		}
	}

	// The latency histograms recorded the run.
	for _, sample := range []string{
		`apusimd_job_e2e_seconds_count{experiment="spanras"}`,
		`apusimd_job_run_seconds_count{experiment="spanras"}`,
		`apusimd_job_e2e_seconds_bucket{experiment="spanras",le="+Inf"}`,
	} {
		if got := d.metric(t, sample); got != 1 {
			t.Errorf("%s = %g, want 1", sample, got)
		}
	}

	// pprof answers on its own listener and nowhere on the API port.
	if code, _ := getURL(t, "http://"+d.debugAddr+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof on the debug listener: %d, want 200", code)
	}
	if code, _ := d.get(t, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof on the API port: %d, want 404", code)
	}

	d.drain(t)
}
