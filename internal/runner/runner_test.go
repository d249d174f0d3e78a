package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
)

func testRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		i := i
		r.MustRegister(Experiment{
			ID:   fmt.Sprintf("e%d", i),
			Desc: fmt.Sprintf("experiment %d", i),
			Run: func(*Ctx) (string, error) {
				return fmt.Sprintf("output %d\n", i), nil
			},
		})
	}
	return r
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	ok := Experiment{ID: "a", Desc: "d", Run: func(*Ctx) (string, error) { return "", nil }}
	if err := r.Register(ok); err != nil {
		t.Fatalf("valid registration failed: %v", err)
	}
	cases := []Experiment{
		{ID: "", Desc: "empty", Run: ok.Run},
		{ID: "a", Desc: "duplicate", Run: ok.Run},
		{ID: "has space", Desc: "whitespace", Run: ok.Run},
		{ID: "b", Desc: "nil run", Run: nil},
	}
	for _, c := range cases {
		if err := r.Register(c); err == nil {
			t.Errorf("Register(%q/%q) succeeded, want error", c.ID, c.Desc)
		}
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d after rejected registrations, want 1", r.Len())
	}
}

func TestRegistryOrderAndLookup(t *testing.T) {
	r := testRegistry()
	ids := r.IDs()
	for i, id := range ids {
		if want := fmt.Sprintf("e%d", i); id != want {
			t.Fatalf("IDs[%d] = %q, want %q (registration order)", i, id, want)
		}
	}
	e, ok := r.Get("e3")
	if !ok || e.Desc != "experiment 3" {
		t.Fatalf("Get(e3) = %+v, %v", e, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	list := r.List()
	if len(strings.Split(strings.TrimRight(list, "\n"), "\n")) != r.Len() {
		t.Fatalf("List has wrong line count:\n%s", list)
	}
	for _, e := range r.Experiments() {
		if !strings.Contains(list, e.ID) || !strings.Contains(list, e.Desc) {
			t.Errorf("List missing %q", e.ID)
		}
	}
}

// TestParallelOutputMatchesSequential is the core determinism guarantee:
// the rendered suite output is byte-identical for any parallelism.
func TestParallelOutputMatchesSequential(t *testing.T) {
	r := testRegistry()
	render := func(parallel int) string {
		s, err := r.RunSuite(Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.WriteOutputs(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	for _, p := range []int{2, 4, 8, 16} {
		if got := render(p); got != seq {
			t.Fatalf("parallel %d output differs from sequential:\n%q\nvs\n%q", p, got, seq)
		}
	}
}

// TestPanicIsolation injects a panicking experiment and checks that it is
// reported failed in the manifest while every other experiment completes.
func TestPanicIsolation(t *testing.T) {
	r := testRegistry()
	r.MustRegister(Experiment{
		ID: "boom", Desc: "injected crash",
		Run: func(*Ctx) (string, error) { panic("injected failure") },
	})
	r.MustRegister(Experiment{
		ID: "after", Desc: "registered after the crash",
		Run: func(*Ctx) (string, error) { return "still fine\n", nil },
	})
	s, err := r.RunSuite(Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.OK() {
		t.Fatal("suite reported OK despite a panicking experiment")
	}
	var sawPanic bool
	for _, res := range s.Results {
		switch res.ID {
		case "boom":
			sawPanic = true
			if res.Status != StatusPanic {
				t.Errorf("boom status = %s, want panic", res.Status)
			}
			if res.Err == nil || !strings.Contains(res.Err.Error(), "injected failure") {
				t.Errorf("boom err = %v", res.Err)
			}
			if res.Stack == "" {
				t.Error("boom has no stack trace")
			}
			if res.EventsPending == 0 {
				t.Error("boom completion sentinel should remain pending")
			}
		default:
			if res.Status != StatusOK {
				t.Errorf("%s status = %s, want ok", res.ID, res.Status)
			}
			if res.EventsPending != 0 {
				t.Errorf("%s pending = %d, want 0 (clean run drains)", res.ID, res.EventsPending)
			}
		}
	}
	if !sawPanic {
		t.Fatal("no result for the injected panic")
	}

	m := BuildManifest(s)
	if m.Suite.Failed != 1 || m.Suite.OK != len(s.Results)-1 {
		t.Errorf("summary = %+v, want 1 failed of %d", m.Suite, len(s.Results))
	}
	for _, rec := range m.Experiments {
		if rec.ID == "boom" {
			if rec.Status != StatusPanic || rec.Error == "" {
				t.Errorf("manifest record for boom = %+v", rec)
			}
		} else if rec.Status != StatusOK {
			t.Errorf("manifest record %s = %s, want ok", rec.ID, rec.Status)
		}
	}
}

func TestErrorResultKeepsSuiteRunning(t *testing.T) {
	r := testRegistry()
	r.MustRegister(Experiment{
		ID: "bad", Desc: "returns an error",
		Run: func(*Ctx) (string, error) { return "", errors.New("model diverged") },
	})
	s, err := r.RunSuite(Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	failed := s.Failed()
	if len(failed) != 1 || failed[0].ID != "bad" || failed[0].Status != StatusError {
		t.Fatalf("Failed() = %+v", failed)
	}
}

func TestTimeout(t *testing.T) {
	r := NewRegistry()
	block := make(chan struct{})
	defer close(block)
	r.MustRegister(Experiment{
		ID: "hang", Desc: "never returns",
		Run: func(*Ctx) (string, error) { <-block; return "", nil },
	})
	r.MustRegister(Experiment{
		ID: "quick", Desc: "fast",
		Run: func(*Ctx) (string, error) { return "ok\n", nil },
	})
	s, err := r.RunSuite(Options{Parallel: 2, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if s.Results[0].Status != StatusTimeout {
		t.Errorf("hang status = %s, want timeout", s.Results[0].Status)
	}
	if s.Results[1].Status != StatusOK {
		t.Errorf("quick status = %s, want ok", s.Results[1].Status)
	}
}

func TestSubsetAndUnknownID(t *testing.T) {
	r := testRegistry()
	s, err := r.RunSuite(Options{Parallel: 1, IDs: []string{"e5", "e1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 2 || s.Results[0].ID != "e1" || s.Results[1].ID != "e5" {
		t.Fatalf("subset results = %+v, want [e1 e5] in registration order", s.Results)
	}
	if _, err := r.RunSuite(Options{Parallel: 1, IDs: []string{"nope"}}); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestOnResultStreamsInOrder(t *testing.T) {
	r := testRegistry()
	var got []string
	s, err := r.RunSuite(Options{Parallel: 8, OnResult: func(res Result) {
		got = append(got, res.ID)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s.Results) {
		t.Fatalf("OnResult fired %d times, want %d", len(got), len(s.Results))
	}
	for i, id := range got {
		if id != s.Results[i].ID {
			t.Fatalf("OnResult order = %v", got)
		}
	}
}

func TestCtxMilestonesAndEngineStats(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Experiment{
		ID: "m", Desc: "uses milestones",
		Run: func(ctx *Ctx) (string, error) {
			ctx.Milestone("halfway")
			if ctx.ID() != "m" {
				t.Errorf("ctx.ID = %q", ctx.ID())
			}
			return "x", nil
		},
	})
	s, err := r.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Results[0]
	// start + halfway + done.
	want := []string{"start", "halfway", "done"}
	if len(res.Milestones) != len(want) {
		t.Fatalf("milestones = %v, want %v", res.Milestones, want)
	}
	for i := range want {
		if res.Milestones[i] != want[i] {
			t.Fatalf("milestones = %v, want %v", res.Milestones, want)
		}
	}
	if res.EventsFired != 3 {
		t.Errorf("EventsFired = %d, want 3", res.EventsFired)
	}
	if res.EventsPending != 0 {
		t.Errorf("EventsPending = %d, want 0", res.EventsPending)
	}
}

// TestCtxPlatform checks the run's platform builder: a nil Ctx builds a
// plain platform, an audited run gets each platform's ledgers, and the
// run's span recorder is threaded in only once the run has made one.
func TestCtxPlatform(t *testing.T) {
	var none *Ctx
	if none.Auditor() != nil {
		t.Error("nil Ctx has an auditor")
	}
	if p, err := none.Platform(config.MI300A()); err != nil || p.SpanRecorder() != nil {
		t.Fatalf("nil Ctx: platform %v, err %v; want a plain platform", p, err)
	}

	ctx := newCtx("p", Options{Parallel: 1, Audit: true})
	drain := ctx.Auditor().Checks()
	untraced, err := ctx.Platform(config.MI300A())
	if err != nil {
		t.Fatal(err)
	}
	if untraced.SpanRecorder() != nil {
		t.Error("platform traced before the run made a span recorder")
	}
	// MI300A: fabric, HBM, Infinity Cache and GPU partition.
	if got := ctx.Auditor().Checks() - drain; got != 4 {
		t.Errorf("MI300A added %d audit checks, want 4", got)
	}
	rec := ctx.Spans()
	traced, err := ctx.Platform(config.MI300A())
	if err != nil {
		t.Fatal(err)
	}
	if traced.SpanRecorder() != rec {
		t.Error("platform built after Spans does not record on the run's recorder")
	}
	if err := ctx.Auditor().Audit(ctx.Engine().Now()).Err(); err != nil {
		t.Error(err)
	}

	if newCtx("q", Options{Parallel: 1}).Auditor() != nil {
		t.Error("unaudited run has an auditor")
	}
}

func TestManifestJSONRoundTrips(t *testing.T) {
	r := testRegistry()
	s, err := r.RunSuite(Options{Parallel: 2, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := BuildManifest(s).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Schema != ManifestSchema {
		t.Errorf("schema = %q", back.Schema)
	}
	if back.Suite.Total != 8 || back.Suite.OK != 8 || back.Suite.Failed != 0 {
		t.Errorf("suite summary = %+v", back.Suite)
	}
	if back.Suite.TimeoutMS != 60_000 {
		t.Errorf("timeout_ms = %v", back.Suite.TimeoutMS)
	}
	if len(back.Experiments) != 8 {
		t.Fatalf("experiments = %d", len(back.Experiments))
	}
	for i, rec := range back.Experiments {
		if rec.ID != s.Results[i].ID {
			t.Errorf("manifest order: %q at %d", rec.ID, i)
		}
		if rec.OutputBytes != len(s.Results[i].Output) {
			t.Errorf("%s output_bytes = %d", rec.ID, rec.OutputBytes)
		}
	}
	if !strings.Contains(back.Suite.Table, "suite summary") {
		t.Error("manifest summary table missing")
	}
}

func TestSummaryTableShape(t *testing.T) {
	r := testRegistry()
	s, err := r.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.SummaryTable()
	// One row per experiment plus the wall-time distribution footer.
	if tbl.NumRows() != r.Len()+1 {
		t.Fatalf("summary rows = %d, want %d", tbl.NumRows(), r.Len()+1)
	}
	out := tbl.String()
	for _, id := range r.IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("summary missing %s", id)
		}
	}
}

// TestHeapBytesOnlyWhenRunsDoNotOverlap checks the per-run heap figure:
// run one at a time, an experiment that allocates 4 MiB reports at least
// that, and the summary table shows it in its heap column, which the
// manifest's table leaves out; run two at a time, no run reports heap
// bytes and the column shows "-".
func TestHeapBytesOnlyWhenRunsDoNotOverlap(t *testing.T) {
	const size = 4 << 20
	r := NewRegistry()
	var sink [2][]byte
	for i := range sink {
		i := i
		r.MustRegister(Experiment{ID: fmt.Sprintf("alloc%d", i), Desc: "allocates 4 MiB", Run: func(*Ctx) (string, error) {
			sink[i] = make([]byte, size)
			return "", nil
		}})
	}
	s, err := r.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range s.Results {
		if res.HeapBytes < size {
			t.Errorf("%s: HeapBytes %d at -parallel 1, want at least %d", res.ID, res.HeapBytes, size)
		}
	}
	if tbl := s.SummaryTable().String(); !strings.Contains(tbl, "heap KiB") {
		t.Errorf("summary table lacks the heap column:\n%s", tbl)
	}
	for _, row := range s.SummaryTable().Rows()[:len(s.Results)] {
		if kib, err := strconv.ParseFloat(row[len(row)-1], 64); err != nil || kib < size/1024 {
			t.Errorf("row %s shows heap %q KiB at -parallel 1, want at least %d", row[0], row[len(row)-1], size/1024)
		}
	}
	if m := BuildManifest(s).Suite.Table; strings.Contains(m, "heap") {
		t.Errorf("manifest table carries a heap column:\n%s", m)
	}

	s, err = r.RunSuite(Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range s.Results {
		if res.HeapBytes != 0 {
			t.Errorf("%s: HeapBytes %d at -parallel 2, want 0: runs overlap", res.ID, res.HeapBytes)
		}
	}
	for _, row := range s.SummaryTable().Rows() {
		if heap := row[len(row)-1]; heap != "-" {
			t.Errorf("row %s shows heap %q at -parallel 2, want -", row[0], heap)
		}
	}
}

// Satellite: retry semantics. A panicking-then-succeeding experiment must
// succeed on attempt 2 with the manifest recording attempts: 2, and retried
// suites must keep registration-order deterministic stdout.
func TestRetryRescuesPanickingExperiment(t *testing.T) {
	r := testRegistry()
	var calls int32
	r.MustRegister(Experiment{
		ID: "flaky", Desc: "panics once, then succeeds",
		Run: func(*Ctx) (string, error) {
			if atomic.AddInt32(&calls, 1) == 1 {
				panic("transient crash")
			}
			return "recovered output\n", nil
		},
	})
	render := func(parallel int) (string, *SuiteResult) {
		atomic.StoreInt32(&calls, 0)
		s, err := r.RunSuite(Options{Parallel: parallel, Retries: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.WriteOutputs(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), s
	}
	out, s := render(1)
	if !s.OK() {
		t.Fatalf("suite failed despite retry: %+v", s.Failed())
	}
	var flaky Result
	for _, res := range s.Results {
		if res.ID == "flaky" {
			flaky = res
		} else if res.Attempts != 1 {
			t.Errorf("%s attempts = %d, want 1", res.ID, res.Attempts)
		}
	}
	if flaky.Status != StatusOK || flaky.Attempts != 2 {
		t.Fatalf("flaky = status %s attempts %d, want ok/2", flaky.Status, flaky.Attempts)
	}
	if flaky.Output != "recovered output\n" {
		t.Errorf("flaky output = %q", flaky.Output)
	}
	m := BuildManifest(s)
	for _, rec := range m.Experiments {
		if rec.ID == "flaky" && rec.Attempts != 2 {
			t.Errorf("manifest attempts = %d, want 2", rec.Attempts)
		}
	}
	// Registration-order deterministic stdout survives retries at any
	// parallelism.
	for _, p := range []int{2, 8} {
		if got, _ := render(p); got != out {
			t.Fatalf("parallel %d retried output differs:\n%q\nvs\n%q", p, got, out)
		}
	}
}

func TestRetriesExhaustedKeepsFailure(t *testing.T) {
	r := NewRegistry()
	var calls int32
	r.MustRegister(Experiment{
		ID: "alwaysbad", Desc: "fails every attempt",
		Run: func(*Ctx) (string, error) {
			atomic.AddInt32(&calls, 1)
			return "", errors.New("permanent failure")
		},
	})
	s, err := r.RunSuite(Options{Parallel: 1, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Results[0]
	if res.Status != StatusError || res.Attempts != 3 {
		t.Errorf("result = status %s attempts %d, want error/3", res.Status, res.Attempts)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Errorf("run function called %d times, want 3", got)
	}
}

// Options.Timeout is the deadline of the whole experiment: retries start
// at once and run against what is left of it, and running out ends them.
func TestRetriesShareOneDeadline(t *testing.T) {
	// With time to spare, a run that fails twice is rescued by its third
	// attempt.
	r := NewRegistry()
	var flakyCalls int32
	r.MustRegister(Experiment{
		ID: "flaky", Desc: "fails twice, then succeeds",
		Run: func(*Ctx) (string, error) {
			if atomic.AddInt32(&flakyCalls, 1) <= 2 {
				return "", errors.New("transient failure")
			}
			return "recovered\n", nil
		},
	})
	s, err := r.RunSuite(Options{Parallel: 1, Retries: 2, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Results[0]; res.Status != StatusOK || res.Attempts != 3 {
		t.Fatalf("flaky = status %s attempts %d, want ok/3", res.Status, res.Attempts)
	}

	// Attempts that each fail after 30 ms exhaust a 100 ms deadline before
	// the retry budget: the result is a timeout, not the last error.
	r = NewRegistry()
	var slowCalls int32
	r.MustRegister(Experiment{
		ID: "slowbad", Desc: "fails every attempt after 30 ms",
		Run: func(*Ctx) (string, error) {
			atomic.AddInt32(&slowCalls, 1)
			time.Sleep(30 * time.Millisecond)
			return "", errors.New("permanent failure")
		},
	})
	s, err = r.RunSuite(Options{Parallel: 1, Retries: 5, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Results[0]
	if res.Status != StatusTimeout || res.Attempts >= 6 {
		t.Fatalf("slowbad = status %s attempts %d (%v), want timeout after fewer than 6", res.Status, res.Attempts, res.Err)
	}
	if got := atomic.LoadInt32(&slowCalls); got >= 6 {
		t.Errorf("run function called %d times, want fewer than 6", got)
	}
	if res.Err == nil || res.Err.Error() != "exceeded 100ms deadline" {
		t.Errorf("timeout error %v, want \"exceeded 100ms deadline\"", res.Err)
	}
}

func TestDegradedDistinctFromFailed(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Experiment{
		ID: "deg", Desc: "completes under injected faults",
		Run: func(ctx *Ctx) (string, error) {
			ctx.RecordFault("link-down IOD-A<->IOD-B at 1µs")
			ctx.RecordFault("hbm-channel-retire ch3 at 2µs")
			ctx.MarkDegraded()
			return "degraded but complete\n", nil
		},
	})
	s, err := r.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Results[0]
	if res.Status != StatusDegraded {
		t.Fatalf("status = %s, want degraded", res.Status)
	}
	if res.Failed() {
		t.Error("degraded result reported as failed")
	}
	if !s.OK() {
		t.Error("suite with only a degraded run should still be OK")
	}
	if len(s.Degraded()) != 1 {
		t.Errorf("Degraded() = %d results, want 1", len(s.Degraded()))
	}
	if len(res.Faults) != 2 || !strings.Contains(res.Faults[0], "link-down") {
		t.Errorf("faults = %v", res.Faults)
	}
	// The degraded run drains its engine like a clean one.
	if res.EventsPending != 0 {
		t.Errorf("degraded run pending = %d, want 0", res.EventsPending)
	}
	m := BuildManifest(s)
	if m.Suite.Degraded != 1 || m.Suite.Failed != 0 || m.Suite.OK != 0 {
		t.Errorf("suite summary = %+v, want 1 degraded / 0 failed / 0 ok", m.Suite)
	}
	if len(m.Experiments[0].Faults) != 2 {
		t.Errorf("manifest faults = %v", m.Experiments[0].Faults)
	}
	var b bytes.Buffer
	if err := s.WriteOutputs(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "DEGRADED (2 faults)") || !strings.Contains(b.String(), "degraded but complete") {
		t.Errorf("degraded output block = %q", b.String())
	}
}

func TestClone(t *testing.T) {
	r := testRegistry()
	c := r.Clone()
	c.MustRegister(Experiment{ID: "extra", Desc: "clone-only",
		Run: func(*Ctx) (string, error) { return "", nil }})
	if c.Len() != r.Len()+1 {
		t.Errorf("clone len = %d, want %d", c.Len(), r.Len()+1)
	}
	if _, ok := r.Get("extra"); ok {
		t.Error("clone registration leaked into the source registry")
	}
}

// TestRunAttemptLabelsProfiles checks that an experiment body runs under
// the pprof label naming its experiment, so suite profiles can be split
// per experiment.
func TestRunAttemptLabelsProfiles(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Experiment{ID: "labelled", Desc: "reads its own profile labels",
		Run: func(*Ctx) (string, error) {
			var b bytes.Buffer
			if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
				return "", err
			}
			if !strings.Contains(b.String(), `"experiment":"labelled"`) {
				return "", fmt.Errorf("goroutine profile carries no experiment label:\n%s", b.String())
			}
			return "ok\n", nil
		}})
	s, err := r.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Results[0]; res.Failed() {
		t.Fatalf("labelled run failed (%s): %v", res.Status, res.Err)
	}
}

// TestRunReleasesWhatItBuilt checks that a run hands back every platform
// Ctx.Platform built and every component ReleaseAtEnd queued, and that a
// nil Ctx releases nothing.
func TestRunReleasesWhatItBuilt(t *testing.T) {
	var p *core.Platform
	var x *gpu.XCD
	r := NewRegistry()
	r.MustRegister(Experiment{ID: "build", Desc: "builds a platform and a bare XCD",
		Run: func(ctx *Ctx) (string, error) {
			var err error
			if p, err = ctx.Platform(config.MI300A()); err != nil {
				return "", err
			}
			p.DeviceMem.WriteFloat64(0, 1)
			x = gpu.NewXCD(0, config.MI300A().XCD, nil)
			ctx.ReleaseAtEnd(x)
			x.L2().Access(0, true)
			return "ok\n", nil
		}})
	if s, err := r.RunSuite(Options{Parallel: 1}); err != nil || !s.OK() {
		t.Fatalf("suite: %v, %+v", err, s)
	}
	if !panics(func() { p.DeviceMem.ReadFloat64(0) }) {
		t.Error("the run's platform memory is still readable after the run")
	}
	if x.L2().Stats().Misses != 1 {
		t.Errorf("released L2 counters = %+v, want the run's one miss", x.L2().Stats())
	}
	if !panics(func() { x.L2().Access(0, false) }) {
		t.Error("the run's bare XCD L2 still takes fills after the run")
	}

	var none *Ctx
	plain, err := none.Platform(config.MI300A())
	if err != nil {
		t.Fatal(err)
	}
	none.ReleaseAtEnd(plain)
	plain.DeviceMem.WriteFloat64(0, 1) // a nil Ctx never releases
}

// TestTimedOutRunKeepsItsStorage: a run that outlives its deadline keeps
// its platform's memory while it still simulates, even as later runs
// recycle pages. Releasing at the deadline instead would hand the slow
// run's pages to the next run.
func TestTimedOutRunKeepsItsStorage(t *testing.T) {
	data := make([]byte, 3<<16+123)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	verdict := make(chan error, 1)
	r := NewRegistry()
	r.MustRegister(Experiment{ID: "slow", Desc: "writes, outlives its deadline, reads back",
		Run: func(ctx *Ctx) (out string, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
				verdict <- err
			}()
			p, err := ctx.Platform(config.MI300A())
			if err != nil {
				return "", err
			}
			p.DeviceMem.Write(4096, data)
			<-block
			got := make([]byte, len(data))
			p.DeviceMem.Read(4096, got)
			if !bytes.Equal(got, data) {
				return "", errors.New("data changed while the run was blocked")
			}
			return "ok\n", nil
		}})
	r.MustRegister(Experiment{ID: "recycler", Desc: "writes pages over whatever the free list holds",
		Run: func(ctx *Ctx) (string, error) {
			p, err := ctx.Platform(config.MI300A())
			if err != nil {
				return "", err
			}
			p.DeviceMem.Write(0, bytes.Repeat([]byte{0xee}, 1<<20))
			return "ok\n", nil
		}})
	s, err := r.RunSuite(Options{Parallel: 1, IDs: []string{"slow"}, Timeout: 20 * time.Millisecond})
	if err != nil || s.Results[0].Status != StatusTimeout {
		t.Fatalf("slow run: %v, %+v; want a timeout", err, s)
	}
	for i := 0; i < 2; i++ {
		if s, err := r.RunSuite(Options{Parallel: 1, IDs: []string{"recycler"}}); err != nil || !s.OK() {
			t.Fatalf("recycler run: %v, %+v", err, s)
		}
	}
	unblock()
	select {
	case err := <-verdict:
		if err != nil {
			t.Errorf("timed-out run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed-out run never finished")
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
