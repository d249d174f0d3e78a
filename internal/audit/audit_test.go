package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestNilAuditorIsInert(t *testing.T) {
	var a *Auditor
	if a.Enabled() {
		t.Fatal("nil auditor reports enabled")
	}
	a.Register("x", func(sim.Time) []Violation { return []Violation{{Ledger: "boom"}} })
	if a.Checks() != 0 {
		t.Fatalf("nil auditor holds %d checks", a.Checks())
	}
	if rep := a.Audit(0); rep != nil {
		t.Fatalf("nil auditor produced a report: %+v", rep)
	}
	// A nil report is a clean report: completed-but-unaudited runs pass.
	var rep *Report
	if !rep.OK() {
		t.Fatal("nil report is not OK")
	}
}

func TestAuditCleanReport(t *testing.T) {
	a := New()
	if !a.Enabled() {
		t.Fatal("fresh auditor not enabled")
	}
	a.Register("fabric", func(sim.Time) []Violation { return nil })
	a.Register("hbm", func(sim.Time) []Violation { return nil })

	rep := a.Audit(3 * sim.Microsecond)
	if rep.Schema != Schema {
		t.Fatalf("schema %q, want %q", rep.Schema, Schema)
	}
	if rep.Checks != 2 {
		t.Fatalf("checks %d, want 2", rep.Checks)
	}
	if rep.AtNS != 3000 {
		t.Fatalf("at_ns %g, want 3000", rep.AtNS)
	}
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("clean report not OK: %v", rep.Err())
	}
	// Violations must marshal as [] (never null) so the wire shape is
	// stable for report diffing.
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"violations": []`)) && !bytes.Contains(out, []byte(`"violations":[]`)) {
		t.Fatalf("clean report does not marshal violations as []: %s", out)
	}
}

func TestAuditViolationsFillComponentAndOrder(t *testing.T) {
	a := New()
	a.Register("fabric", func(sim.Time) []Violation {
		return []Violation{{Ledger: "byte-conservation", Detail: "lost bytes", Want: 10, Got: 7}}
	})
	a.Register("gpu", func(sim.Time) []Violation {
		return []Violation{{Component: "gpu.part0", Ledger: "dispatch-accounting", Want: 4, Got: 3}}
	})

	rep := a.Audit(0)
	if rep.OK() {
		t.Fatal("report with violations is OK")
	}
	if len(rep.Violations) != 2 {
		t.Fatalf("got %d violations, want 2", len(rep.Violations))
	}
	// Empty Component inherits the registration name; explicit ones win.
	if rep.Violations[0].Component != "fabric" {
		t.Fatalf("violation 0 component %q, want inherited \"fabric\"", rep.Violations[0].Component)
	}
	if rep.Violations[1].Component != "gpu.part0" {
		t.Fatalf("violation 1 component %q, want explicit \"gpu.part0\"", rep.Violations[1].Component)
	}

	err := rep.Err()
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("report error %v does not wrap ErrViolation", err)
	}
}

func TestEngineCheckQuiescence(t *testing.T) {
	a := New()
	eng := sim.NewEngine()
	Engine(a, eng)

	eng.Schedule(10, eng.Class("tick"), func(sim.Time) {})
	if rep := a.Audit(eng.Now()); rep.OK() {
		t.Fatal("audit passed with a live pending event")
	}
	eng.RunAll()
	if rep := a.Audit(eng.Now()); !rep.OK() {
		t.Fatalf("audit failed on a drained engine: %v", rep.Violations)
	}
	// A sentinel parked at Forever is quiescent by design.
	eng.Schedule(sim.Forever, eng.Class("sentinel"), func(sim.Time) {})
	if rep := a.Audit(eng.Now()); !rep.OK() {
		t.Fatalf("audit failed with only a Forever sentinel pending: %v", rep.Violations)
	}
}
