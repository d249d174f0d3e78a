package apusim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// The suite golden pins the whole evaluation by value: every
// experiment's output block, the run manifest with its wall-clock fields
// zeroed, and sha256 digests of the spans, telemetry and audit dumps and
// of a seeded chaos sweep. A refactor or speed-up that claims to keep
// outputs byte-identical must leave testdata/suite.golden untouched.
// Regenerate it, only for an intended output change, with
//
//	UPDATE_SUITE_GOLDEN=1 go test -run TestSuiteGolden .

const (
	suiteGoldenPath = "testdata/suite.golden"
	// goldenChaosSeed and goldenChaosStorms fix the chaos sweep the
	// golden digests: the same storms `repro -chaos-seed 20260806
	// -chaos-count 4` runs.
	goldenChaosSeed   = 20260806
	goldenChaosStorms = 4
	// goldenParallel is the worker-pool width the golden is re-checked
	// at after the sequential run.
	goldenParallel = 8
)

// goldenSlow are the experiments the parallel check takes from the
// sequential run instead of running them again: together they are most
// of the suite's wall time.
var goldenSlow = map[string]bool{"fig14": true, "managed": true}

// drainOnly are the experiments that build no fabric, HBM, cache or GPU
// partition, so their audited runs carry the engine's drain check alone.
var drainOnly = map[string]bool{
	"table1": true, "fig12a": true, "fig12bc": true, "fig17": true,
	"tsv": true, "fig11": true, "powershift": true, "scopes": true,
}

// checkAuditCoverage fails when an audited experiment outside drainOnly
// reports no more than the drain check: it built a platform outside
// ctx.Platform, or a bare component it did not register on the run's
// auditor.
func checkAuditCoverage(t *testing.T, s *runner.SuiteResult) {
	t.Helper()
	for _, r := range s.Results {
		switch n := r.Audit.Checks; {
		case drainOnly[r.ID] && n != 1:
			t.Errorf("%s reports %d audit checks at -parallel %d; it builds components now, so take it off drainOnly",
				r.ID, n, s.Parallel)
		case !drainOnly[r.ID] && n <= 1:
			t.Errorf("%s reports only the drain check at -parallel %d: its components carry no ledgers",
				r.ID, s.Parallel)
		}
	}
}

// runGoldenSuite runs reg's experiments except skip, audited, at the
// given worker-pool width.
func runGoldenSuite(t *testing.T, reg *runner.Registry, parallel int, skip map[string]bool) *runner.SuiteResult {
	t.Helper()
	var ids []string
	for _, id := range reg.IDs() {
		if !skip[id] {
			ids = append(ids, id)
		}
	}
	s, err := reg.RunSuite(runner.Options{Parallel: parallel, IDs: ids, Audit: true})
	if err != nil {
		t.Fatalf("RunSuite(parallel=%d): %v", parallel, err)
	}
	for _, r := range s.Failed() {
		t.Fatalf("%s failed at parallel %d (%s): %v", r.ID, parallel, r.Status, r.Err)
	}
	return s
}

// spliceResults returns s with the results of from's experiments that s
// skipped put back in registration order.
func spliceResults(reg *runner.Registry, s, from *runner.SuiteResult) *runner.SuiteResult {
	byID := make(map[string]runner.Result, len(s.Results)+len(from.Results))
	for _, r := range from.Results {
		byID[r.ID] = r
	}
	for _, r := range s.Results {
		byID[r.ID] = r
	}
	out := *s
	out.Results = nil
	for _, id := range reg.IDs() {
		out.Results = append(out.Results, byID[id])
	}
	return &out
}

// renderGolden renders a suite and a chaos sweep as the golden text. The
// suite's wall clocks (run times and the telemetry summary's per-class
// handler cost) are zeroed and its worker count is set to 1, since none
// of them is an output of the simulation.
func renderGolden(t *testing.T, suite, chaos *runner.SuiteResult) string {
	t.Helper()
	norm := *suite
	norm.Wall, norm.Parallel = 0, 1
	norm.Results = append([]runner.Result(nil), suite.Results...)
	for i := range norm.Results {
		r := &norm.Results[i]
		r.Wall = 0
		if r.Telemetry != nil && r.Telemetry.Engine != nil {
			sum, eng := *r.Telemetry, *r.Telemetry.Engine
			eng.Classes = append([]telemetry.ClassStats(nil), eng.Classes...)
			for j := range eng.Classes {
				eng.Classes[j].WallNS = 0
			}
			sum.Engine = &eng
			r.Telemetry = &sum
		}
	}
	digest := func(name string, write func(*bytes.Buffer) error) string {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fmt.Sprintf("%-16s sha256:%x\n", name, sha256.Sum256(b.Bytes()))
	}
	var g strings.Builder
	g.WriteString("# Suite golden: regenerate with UPDATE_SUITE_GOLDEN=1 go test -run TestSuiteGolden .\n")
	g.WriteString("\n### digests\n")
	g.WriteString(digest("spans", func(b *bytes.Buffer) error { return norm.WriteSpanRuns(b) }))
	g.WriteString(digest("telemetry", func(b *bytes.Buffer) error { return norm.WriteTelemetryRuns(b) }))
	g.WriteString(digest("audit", func(b *bytes.Buffer) error { return norm.WriteAuditRuns(b) }))
	g.WriteString(digest("chaos.outputs", func(b *bytes.Buffer) error { return chaos.WriteOutputs(b) }))
	g.WriteString(digest("chaos.audit", func(b *bytes.Buffer) error { return chaos.WriteAuditRuns(b) }))
	g.WriteString("\n### outputs\n")
	if err := norm.WriteOutputs(&g); err != nil {
		t.Fatal(err)
	}
	g.WriteString("\n### manifest\n")
	if err := runner.BuildManifest(&norm).WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	return g.String()
}

// firstDiff describes the first line where got departs from want.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g, w)
		}
	}
	return "no differing line"
}

// TestSuiteGolden checks the golden at -parallel 1 and at -parallel 8.
// fig14 and managed run once, sequentially; the parallel check reuses
// their results so the test stays cheap.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation; skipped with -short")
	}
	reg := Experiments()
	chaosReg := runner.NewRegistry()
	RegisterChaosStorms(chaosReg, goldenChaosSeed, goldenChaosStorms)

	seq := runGoldenSuite(t, reg, 1, nil)
	checkAuditCoverage(t, seq)
	seqChaos := runGoldenSuite(t, chaosReg, 1, nil)
	got := renderGolden(t, seq, seqChaos)

	if os.Getenv("UPDATE_SUITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(suiteGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(suiteGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_SUITE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("suite at -parallel 1 drifted from %s; regenerate with UPDATE_SUITE_GOLDEN=1 only for an intended output change. First difference at %s",
			suiteGoldenPath, firstDiff(got, string(want)))
	}

	par := spliceResults(reg, runGoldenSuite(t, reg, goldenParallel, goldenSlow), seq)
	checkAuditCoverage(t, par)
	parChaos := runGoldenSuite(t, chaosReg, goldenParallel, nil)
	if got := renderGolden(t, par, parChaos); got != string(want) {
		t.Fatalf("suite at -parallel %d drifted from %s. First difference at %s",
			goldenParallel, suiteGoldenPath, firstDiff(got, string(want)))
	}
}
