package service

import (
	"strings"
	"testing"

	"repro/internal/ras"
)

// goldenSpecJSON is a pinned wire-form spec; goldenSpecHash is its pinned
// content address. If this test breaks, the canonical form changed — that
// invalidates every stored cache entry in the wild, so bump the
// apusim-job-spec version and re-pin deliberately, don't just update the
// constant.
const (
	goldenSpecJSON = `{
		"fault_plan": {
			"seed": 7,
			"faults": [
				{"kind": "ecc-storm", "at_ns": 50, "rate": 0.01, "penalty_ns": 20},
				{"kind": "link-down", "at_ns": 10, "a": "xcd0", "b": "xcd1"}
			]
		},
		"telemetry": true,
		"sample_ns": 100,
		"retries": 1
	}`
	goldenSpecHash = "sha256:62b7a000ff61acee4a5b37bae5ff172c803f06d848ba77e05395c6c08985c587"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", src, err)
	}
	return s
}

func TestSpecGoldenHash(t *testing.T) {
	s := mustParse(t, goldenSpecJSON)
	if got := s.Hash(); got != goldenSpecHash {
		t.Errorf("golden spec hash changed:\n got %s\nwant %s\ncanonical: %s", got, goldenSpecHash, s.Canonical())
	}
}

func TestSpecHashFieldOrderIndependent(t *testing.T) {
	a := mustParse(t, `{"experiment": "baseline", "telemetry": true, "sample_ns": 250, "retries": 2}`)
	b := mustParse(t, `{"retries": 2, "sample_ns": 250, "telemetry": true, "experiment": "baseline"}`)
	if a.Hash() != b.Hash() {
		t.Errorf("field order changed the hash:\n a %s\n b %s", a.Canonical(), b.Canonical())
	}
}

func TestSpecHashFaultOrderIndependent(t *testing.T) {
	a := mustParse(t, `{"fault_plan": {"seed": 3, "faults": [
		{"kind": "link-down", "at_ns": 10, "a": "xcd0", "b": "xcd1"},
		{"kind": "ecc-storm", "at_ns": 5, "rate": 0.5, "penalty_ns": 10}
	]}}`)
	b := mustParse(t, `{"fault_plan": {"seed": 3, "faults": [
		{"kind": "ecc-storm", "at_ns": 5, "rate": 0.5, "penalty_ns": 10},
		{"kind": "link-down", "at_ns": 10, "a": "xcd0", "b": "xcd1"}
	]}}`)
	if a.Hash() != b.Hash() {
		t.Errorf("fault order changed the hash (injector fires in AtNS order):\n a %s\n b %s", a.Canonical(), b.Canonical())
	}
}

func TestSpecHashSeedSensitivity(t *testing.T) {
	s1 := mustParse(t, `{"fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 100, "xcd": 1}]}}`)
	s2 := mustParse(t, `{"fault_plan": {"seed": 2, "faults": [{"kind": "xcd-loss", "at_ns": 100, "xcd": 1}]}}`)
	if s1.Hash() == s2.Hash() {
		t.Errorf("different plan seeds hashed equal: %s", s1.Hash())
	}

	// A spec-level seed folds into the plan seed: the two spellings are
	// the same work and must share a cache key.
	folded := mustParse(t, `{"seed": 2, "fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 100, "xcd": 1}]}}`)
	if folded.Hash() != s2.Hash() {
		t.Errorf("spec seed override did not fold into the plan seed:\n folded %s\n direct %s", folded.Canonical(), s2.Canonical())
	}
}

func TestSpecHashPlanSensitivity(t *testing.T) {
	a := mustParse(t, `{"fault_plan": {"seed": 1, "faults": [{"kind": "cu-loss", "at_ns": 10, "count": 4, "xcd": 0}]}}`)
	b := mustParse(t, `{"fault_plan": {"seed": 1, "faults": [{"kind": "cu-loss", "at_ns": 10, "count": 8, "xcd": 0}]}}`)
	if a.Hash() == b.Hash() {
		t.Errorf("different fault plans hashed equal: %s", a.Hash())
	}
}

func TestSpecHashIgnoresNoCacheAndInertOptions(t *testing.T) {
	plain := mustParse(t, `{"experiment": "baseline"}`)
	for _, src := range []string{
		`{"experiment": "baseline", "no_cache": true}`,
		`{"experiment": "baseline", "sample_ns": 500}`,   // cadence without telemetry is inert
		`{"experiment": "baseline", "span_sample": 0.5}`, // rate without spans is inert
	} {
		if got := mustParse(t, src).Hash(); got != plain.Hash() {
			t.Errorf("spec %s hashed %s, want the plain hash %s", src, got, plain.Hash())
		}
	}

	// But the armed versions of those options DO change the work.
	armed := mustParse(t, `{"experiment": "baseline", "telemetry": true, "sample_ns": 500}`)
	if armed.Hash() == plain.Hash() {
		t.Errorf("armed telemetry did not change the hash")
	}
}

func TestSpecSpanRateClampsToOne(t *testing.T) {
	a := mustParse(t, `{"experiment": "baseline", "spans": true}`)
	b := mustParse(t, `{"experiment": "baseline", "spans": true, "span_sample": 1}`)
	if a.Hash() != b.Hash() {
		t.Errorf("spans with default rate and rate 1 hashed differently:\n a %s\n b %s", a.Canonical(), b.Canonical())
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown field", `{"experiment": "x", "experimnet": "y"}`, "unknown field"},
		{"trailing data", `{"experiment": "x"} {"experiment": "y"}`, "trailing data"},
		{"no work", `{}`, "selects no work"},
		{"both selectors", `{"experiment": "x", "fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 0, "xcd": 0}]}}`, "pick one"},
		{"platform without plan", `{"experiment": "x", "platform": "mi300a"}`, "without a fault plan"},
		{"unknown platform", `{"platform": "mi400x", "fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 0, "xcd": 0}]}}`, "unknown platform"},
		{"empty plan", `{"fault_plan": {"seed": 1, "faults": []}}`, "no faults"},
		{"bad fault", `{"fault_plan": {"seed": 1, "faults": [{"kind": "warp-core-breach", "at_ns": 0}]}}`, "unknown kind"},
		{"negative cadence", `{"experiment": "x", "sample_ns": -5}`, "negative sample_ns"},
		{"negative span rate", `{"experiment": "x", "span_sample": -0.5}`, "not a rate"},
		{"negative retries", `{"experiment": "x", "retries": -1}`, "retries"},
		{"excessive retries", `{"experiment": "x", "retries": 99}`, "retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNormalizeDoesNotMutateInput(t *testing.T) {
	s := mustParse(t, `{"seed": 9, "fault_plan": {"seed": 1, "faults": [
		{"kind": "link-down", "at_ns": 20, "a": "xcd0", "b": "xcd1"},
		{"kind": "xcd-loss", "at_ns": 5, "xcd": 2}
	]}}`)
	_ = s.Hash()
	if s.Seed != 9 || s.FaultPlan.Seed != 1 {
		t.Errorf("normalization mutated the original spec: seed %d plan seed %d", s.Seed, s.FaultPlan.Seed)
	}
	if s.FaultPlan.Faults[0].Kind != ras.FaultLinkDown {
		t.Errorf("normalization re-sorted the original plan's faults")
	}
}

func TestEffectivePlanFoldsSeedAndSorts(t *testing.T) {
	s := mustParse(t, `{"seed": 9, "fault_plan": {"seed": 1, "faults": [
		{"kind": "link-down", "at_ns": 20, "a": "xcd0", "b": "xcd1"},
		{"kind": "xcd-loss", "at_ns": 5, "xcd": 2}
	]}}`)
	p := s.EffectivePlan()
	if p.Seed != 9 {
		t.Errorf("EffectivePlan seed = %d, want the spec-level override 9", p.Seed)
	}
	if p.Faults[0].Kind != ras.FaultXCDLoss || p.Faults[1].Kind != ras.FaultLinkDown {
		t.Errorf("EffectivePlan faults not sorted by AtNS: %v, %v", p.Faults[0].Kind, p.Faults[1].Kind)
	}
}

// FuzzParseSpec feeds arbitrary bodies to the submission parser. No body
// may make it panic, and an accepted spec's canonical form must re-parse
// to a spec with the same canonical bytes and so the same content
// address: admission, the journal and the store all key on it.
func FuzzParseSpec(f *testing.F) {
	for _, src := range []string{
		goldenSpecJSON,
		`{"experiment": "baseline", "telemetry": true, "sample_ns": 250, "retries": 2}`,
		`{"fault_plan": {"seed": 3, "faults": [{"kind": "link-down", "at_ns": 10, "a": "xcd0", "b": "xcd1"}, {"kind": "ecc-storm", "at_ns": 5, "rate": 0.5, "penalty_ns": 10}]}}`,
		`{"seed": 2, "fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 100, "xcd": 1}]}}`,
		`{"fault_plan": {"seed": 1, "faults": [{"kind": "cu-loss", "at_ns": 10, "count": 4, "xcd": 0}]}}`,
		`{"experiment": "baseline", "no_cache": true, "span_sample": 0.5}`,
		`{"experiment": "baseline", "spans": true, "span_sample": 1}`,
		`{"experiment": "x", "timeout_ms": 20, "audit": true, "strict": true}`,
		`{"platform": "mi400x", "fault_plan": {"seed": 1, "faults": [{"kind": "xcd-loss", "at_ns": 0, "xcd": 0}]}}`,
		`{"experiment": "x"} {"experiment": "y"}`,
		`{"experiment": "x", "retries": 99}`,
		`{}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := ParseSpec(body)
		if err != nil {
			return
		}
		canon := s.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not re-parse: %v", canon, err)
		}
		if twice := again.Canonical(); string(twice) != string(canon) {
			t.Fatalf("canonicalizing is not idempotent:\n%s\n%s", canon, twice)
		}
		if again.Hash() != s.Hash() {
			t.Fatalf("round trip changed the hash of %s", body)
		}
	})
}
