package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The tests here drive the built command as a user does: flags in, exit
// code and files out. Outputs by value are TestSuiteGolden's job; these
// check the flag plumbing and the file formats. The command is built
// once per package.

// binDir holds the built command; TestMain removes it.
var binDir string

var buildRepro = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "repro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building repro: %v\n%s", err, out)
	}
	return bin, nil
})

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the built command with args, discarding stdout, and
// returns its exit code and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	bin, err := buildRepro()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	return 0, stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) {
	t.Helper()
	if code, stderr := run(t, args...); code != 0 {
		t.Fatalf("repro %s exited %d:\n%s", strings.Join(args, " "), code, stderr)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %s: %v", filepath.Base(path), err)
	}
}

// TestProfileFlags runs the built command with -cpuprofile and
// -memprofile and checks that both write a non-empty pprof file (pprof
// files are gzip-compressed protocol buffers).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	mustRun(t, "-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || !bytes.Equal(b[:2], []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, not a gzip stream", filepath.Base(path), len(b))
		}
	}
}

// TestFailedOutputWriteExits1: an output file that cannot be created or
// written fails the run with exit 1, naming the file's flag.
func TestFailedOutputWriteExits1(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	for flag, name := range map[string]string{
		"-manifest": "manifest", "-telemetry": "telemetry", "-spans": "spans",
		"-prom": "prom", "-audit-out": "audit",
	} {
		paths := []string{missing}
		if _, err := os.Stat("/dev/full"); err == nil {
			paths = append(paths, "/dev/full") // every write fails with ENOSPC
		}
		for _, path := range paths {
			code, stderr := run(t, "-exp", "table1", flag, path)
			if code != 1 || !strings.Contains(stderr, "repro: "+name+": ") {
				t.Errorf("repro %s %s exited %d, want 1 with a %q error:\n%s", flag, path, code, name, stderr)
			}
		}
	}
}

// TestFaultPlanExitCodes: a survivable fault plan completes (degraded,
// exit 0); a plan that partitions the fabric fails the run with the
// typed partition error (exit 1).
func TestFaultPlanExitCodes(t *testing.T) {
	mustRun(t, "-faults", "testdata/faults-degraded.json")
	code, stderr := run(t, "-faults", "testdata/faults-partition.json")
	if code != 1 || !strings.Contains(stderr, "network partitioned") {
		t.Errorf("partitioning plan exited %d, want 1 with a partition error:\n%s", code, stderr)
	}
}

// TestTelemetryFile: a sampled run writes a series file that carries the
// pinned schema versions, names a known probe and records the requested
// cadence.
func TestTelemetryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	mustRun(t, "-exp", "rasecc", "-telemetry", path, "-sample-ns", "100000")
	var f struct {
		Schema string `json:"schema"`
		Runs   []struct {
			ID        string `json:"id"`
			Telemetry struct {
				Schema   string    `json:"schema"`
				SampleNS float64   `json:"sample_ns"`
				TimesNS  []float64 `json:"times_ns"`
				Series   []struct {
					Name string `json:"name"`
				} `json:"series"`
			} `json:"telemetry"`
		} `json:"runs"`
	}
	readJSON(t, path, &f)
	if f.Schema != "apusim-telemetry-runs/v1" || len(f.Runs) != 1 || f.Runs[0].ID != "rasecc" {
		t.Fatalf("telemetry file: schema %q, %d runs, want apusim-telemetry-runs/v1 with run rasecc", f.Schema, len(f.Runs))
	}
	tel := f.Runs[0].Telemetry
	if tel.Schema != "apusim-telemetry/v1" {
		t.Errorf("dump schema %q, want apusim-telemetry/v1", tel.Schema)
	}
	if len(tel.TimesNS) == 0 || tel.SampleNS != 100000 {
		t.Errorf("%d samples at sample_ns %g, want some at 100000", len(tel.TimesNS), tel.SampleNS)
	}
	var names []string
	for _, s := range tel.Series {
		names = append(names, s.Name)
	}
	if !slices.Contains(names, "hbm.ecc_retries") {
		t.Errorf("no hbm.ecc_retries series among %v", names)
	}
}

// TestStrictAuditManifest: a strictly audited run balances every
// conservation ledger, and its manifest carries a clean audit block.
func TestStrictAuditManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	mustRun(t, "-exp", "raslink", "-audit", "-strict", "-manifest", path)
	var m struct {
		Schema string `json:"schema"`
		Suite  struct {
			Violated int `json:"violated"`
		} `json:"suite"`
		Experiments []struct {
			ID    string `json:"id"`
			Audit *struct {
				Schema     string          `json:"schema"`
				Violations json.RawMessage `json:"violations"`
			} `json:"audit"`
		} `json:"experiments"`
	}
	readJSON(t, path, &m)
	if m.Schema != "apusim-run-manifest/v1" || m.Suite.Violated != 0 {
		t.Fatalf("manifest schema %q, suite.violated %d; want apusim-run-manifest/v1 and 0", m.Schema, m.Suite.Violated)
	}
	if len(m.Experiments) == 0 {
		t.Fatal("manifest lists no experiments")
	}
	for _, e := range m.Experiments {
		if e.Audit == nil || e.Audit.Schema != "apusim-audit/v1" || string(e.Audit.Violations) != "[]" {
			t.Errorf("%s: audit block %+v, want apusim-audit/v1 with no violations", e.ID, e.Audit)
		}
	}
}

// TestChaosAuditFileParallelInvariant: seeded fault storms run clean
// under strict auditing, and the audit file is byte-identical at
// -parallel 1 and 8.
func TestChaosAuditFileParallelInvariant(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	for _, parallel := range []string{"1", "8"} {
		path := filepath.Join(dir, "audit-"+parallel+".json")
		mustRun(t, "-chaos-seed", "20260806", "-chaos-count", "2", "-strict", "-parallel", parallel, "-audit-out", path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("audit file differs between -parallel 1 and 8:\n%s\nvs\n%s", files[0], files[1])
	}
	var f struct {
		Schema string `json:"schema"`
		Runs   []struct {
			ID    string `json:"id"`
			Audit struct {
				Violations json.RawMessage `json:"violations"`
			} `json:"audit"`
		} `json:"runs"`
	}
	readJSON(t, filepath.Join(dir, "audit-1.json"), &f)
	if f.Schema != "apusim-audit-runs/v1" || len(f.Runs) != 2 {
		t.Fatalf("audit file: schema %q with %d runs, want apusim-audit-runs/v1 with 2", f.Schema, len(f.Runs))
	}
	for _, r := range f.Runs {
		if string(r.Audit.Violations) != "[]" {
			t.Errorf("storm %s: violations %s", r.ID, r.Audit.Violations)
		}
	}
}
