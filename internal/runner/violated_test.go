package runner

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/sim"
)

// livelockOnFirstAttempt returns an experiment whose first attempt
// livelocks (tripping the watchdog at its default event budget) and whose
// later attempts complete, recording each attempt's engine so tests can
// assert isolation.
func livelockOnFirstAttempt(id string, engines *[]*sim.Engine) Experiment {
	var mu sync.Mutex
	attempts := 0
	return Experiment{
		ID: id, Desc: "livelocks once, then behaves",
		Run: func(ctx *Ctx) (string, error) {
			mu.Lock()
			attempts++
			n := attempts
			*engines = append(*engines, ctx.Engine())
			mu.Unlock()
			eng := ctx.Engine()
			if n == 1 {
				cls := eng.Class("spin")
				var spin func(sim.Time)
				spin = func(now sim.Time) { eng.Schedule(now, cls, spin) }
				eng.Schedule(10, cls, spin)
			} else {
				eng.Schedule(10, eng.Class("tick"), func(sim.Time) {})
			}
			eng.RunAll()
			return "ok\n", nil
		},
	}
}

func TestWatchdogTripBecomesStatusViolated(t *testing.T) {
	reg := NewRegistry()
	var engines []*sim.Engine
	reg.MustRegister(livelockOnFirstAttempt("wd", &engines))

	s, err := reg.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Results[0]
	if r.Status != StatusViolated {
		t.Fatalf("status %s, want %s", r.Status, StatusViolated)
	}
	if !errors.Is(r.Err, sim.ErrWatchdog) {
		t.Fatalf("error %v does not unwrap to ErrWatchdog", r.Err)
	}
	if !r.Failed() {
		t.Fatal("violated run does not count as failed")
	}
	if got := len(s.Violated()); got != 1 {
		t.Fatalf("suite reports %d violated runs, want 1", got)
	}
	m := BuildManifest(s)
	if m.Suite.Violated != 1 || m.Suite.Failed != 1 {
		t.Fatalf("manifest summary violated=%d failed=%d, want 1/1", m.Suite.Violated, m.Suite.Failed)
	}
}

func TestRetriesRescueViolatedRunOnFreshEngine(t *testing.T) {
	reg := NewRegistry()
	var engines []*sim.Engine
	reg.MustRegister(livelockOnFirstAttempt("wd", &engines))

	s, err := reg.RunSuite(Options{Parallel: 1, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("status %s after retry, want ok (err %v)", r.Status, r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", r.Attempts)
	}
	if len(engines) != 2 || engines[0] == engines[1] {
		t.Fatalf("retry did not get a fresh engine: %d attempts, distinct=%v",
			len(engines), len(engines) == 2 && engines[0] != engines[1])
	}
	// The rescued attempt's counters, not the violated one's, land in the
	// manifest record.
	m := BuildManifest(s)
	rec := m.Experiments[0]
	if rec.Attempts != 2 || rec.Status != StatusOK || rec.Error != "" {
		t.Fatalf("manifest record attempts=%d status=%s error=%q, want 2/ok/empty",
			rec.Attempts, rec.Status, rec.Error)
	}
	if rec.EventsPending != 0 {
		t.Fatalf("rescued run left %d events pending", rec.EventsPending)
	}
}

// failOnceAudit registers an audit check that reports a violation on the
// first attempt only.
func failOnceAudit(id string) Experiment {
	var mu sync.Mutex
	attempts := 0
	return Experiment{
		ID: id, Desc: "violates a ledger once, then balances",
		Run: func(ctx *Ctx) (string, error) {
			mu.Lock()
			attempts++
			bad := attempts == 1
			mu.Unlock()
			ctx.Auditor().Register("widget", func(sim.Time) []audit.Violation {
				if bad {
					return []audit.Violation{{Ledger: "widget-conservation",
						Detail: "lost a widget", Want: 2, Got: 1}}
				}
				return nil
			})
			return "ok\n", nil
		},
	}
}

func TestStrictAuditViolationFailsAndRetries(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(failOnceAudit("aud"))

	s, err := reg.RunSuite(Options{Parallel: 1, Audit: true, Strict: true, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Results[0]
	if r.Status != StatusOK || r.Attempts != 2 {
		t.Fatalf("status %s attempts %d, want ok/2 (err %v)", r.Status, r.Attempts, r.Err)
	}
	if r.Audit == nil || !r.Audit.OK() {
		t.Fatalf("rescued run's audit report: %+v", r.Audit)
	}
}

func TestStrictAuditViolationWithoutRetriesFails(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(failOnceAudit("aud"))

	s, err := reg.RunSuite(Options{Parallel: 1, Audit: true, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Results[0]
	if r.Status != StatusViolated {
		t.Fatalf("status %s, want %s", r.Status, StatusViolated)
	}
	if !errors.Is(r.Err, audit.ErrViolation) {
		t.Fatalf("error %v does not unwrap to audit.ErrViolation", r.Err)
	}
	if r.Output != "" {
		t.Fatal("violated run kept its output")
	}
}

func TestNonStrictAuditViolationDegradesAndRecords(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(failOnceAudit("aud"))

	s, err := reg.RunSuite(Options{Parallel: 1, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Results[0]
	if r.Status != StatusDegraded {
		t.Fatalf("status %s, want %s", r.Status, StatusDegraded)
	}
	if r.Failed() {
		t.Fatal("non-strict violation failed the run")
	}
	if r.Audit == nil || r.Audit.OK() {
		t.Fatalf("audit report missing or clean: %+v", r.Audit)
	}
	found := false
	for _, f := range r.Faults {
		if strings.Contains(f, "widget-conservation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violation not recorded in faults: %v", r.Faults)
	}
	// The suite still surfaces it through Violated() and the manifest.
	if len(s.Violated()) != 1 {
		t.Fatalf("suite reports %d violated, want 1", len(s.Violated()))
	}
	var buf bytes.Buffer
	if err := s.WriteAuditRuns(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "widget-conservation") {
		t.Fatalf("audit runs file missing the violation: %s", buf.String())
	}
}

func TestAuditOffMeansNoReports(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Experiment{ID: "plain", Desc: "no audit", Run: func(ctx *Ctx) (string, error) {
		if ctx.Auditor() != nil {
			return "", errors.New("auditor armed without Options.Audit")
		}
		return "ok\n", nil
	}})
	s, err := reg.RunSuite(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Results[0]; r.Status != StatusOK || r.Audit != nil {
		t.Fatalf("status %s audit %+v, want ok/nil (err %v)", r.Status, r.Audit, r.Err)
	}
}
