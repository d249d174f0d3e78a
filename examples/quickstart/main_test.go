package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end and checks that the daxpy
// results it spot-checks came back right.
func TestQuickstart(t *testing.T) {
	out := stdoutOf(t, main)
	if !strings.Contains(out, "spot check passed: true") {
		t.Errorf("quickstart spot check failed:\n%s", out)
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
