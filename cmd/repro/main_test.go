package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestProfileFlags runs the built command with -cpuprofile and
// -memprofile and checks that both write a non-empty pprof file (pprof
// files are gzip-compressed protocol buffers).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "repro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building repro: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if out, err := exec.Command(bin, "-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput(); err != nil {
		t.Fatalf("repro -exp table1 with profiles: %v\n%s", err, out)
	}
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
