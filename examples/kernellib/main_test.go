package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestKernellib runs the example end to end and checks the values its
// reduction and scan kernels computed.
func TestKernellib(t *testing.T) {
	out := stdoutOf(t, main)
	for _, want := range []string{"sum(A·1)=2 ", "scan[262143]=262143 "} {
		if !strings.Contains(out, want) {
			t.Errorf("kernellib output lacks %q:\n%s", want, out)
		}
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
