package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end and compares all it prints
// with testdata/stdout.golden: the daxpy spot check, each XCD's share of
// the workgroups, the memory-system counters and the sampled telemetry,
// power probes included. The example is deterministic; after an intended
// change, regenerate the golden with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/stdout.golden
func TestQuickstart(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := stdoutOf(t, main)
	if !strings.Contains(out, "spot check passed: true") {
		t.Errorf("quickstart spot check failed:\n%s", out)
	}
	if out != string(want) {
		t.Errorf("quickstart output drifted from testdata/stdout.golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// stdoutOf runs f and returns what it printed.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-printed
}
