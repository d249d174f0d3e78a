package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSpanAndOrdering(t *testing.T) {
	tr := New()
	tr.Span("late", "step", 0, 0, 10*sim.Microsecond, 20*sim.Microsecond, nil)
	tr.Span("early", "step", 0, 0, 0, 5*sim.Microsecond, nil)
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Name != "early" {
		t.Errorf("events not sorted: %v", ev)
	}
	if ev[1].DurUS != 10 {
		t.Errorf("duration = %v µs, want 10", ev[1].DurUS)
	}
}

func TestSpanSwapsReversedInterval(t *testing.T) {
	tr := New()
	tr.Span("rev", "", 0, 0, 30*sim.Microsecond, 10*sim.Microsecond, nil)
	if err := tr.Validate(); err != nil {
		t.Errorf("reversed interval produced invalid event: %v", err)
	}
	if tr.Events()[0].DurUS != 20 {
		t.Errorf("duration = %v", tr.Events()[0].DurUS)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	tr := New()
	tr.NameProcess(1, "MI300A")
	tr.NameThread(1, 3, "XCD3")
	tr.Span("kernel", "gpu", 1, 3, sim.Microsecond, 4*sim.Microsecond,
		map[string]string{"workgroups": "456"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// 2 metadata + 1 event.
	if len(decoded) != 3 {
		t.Fatalf("decoded %d records, want 3", len(decoded))
	}
	out := buf.String()
	for _, want := range []string{"process_name", "thread_name", "MI300A", "XCD3", "kernel", "workgroups"} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func TestValidateCatchesBadPhase(t *testing.T) {
	for _, ev := range []Event{
		{Name: "bad", Phase: "B"},
		{Name: "i", Phase: "i", DurUS: 3},
	} {
		tr := New()
		tr.events = append(tr.events, ev)
		if tr.Validate() == nil {
			t.Errorf("%+v not caught", ev)
		}
	}
}

func TestLen(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Error("new trace not empty")
	}
	tr.Span("a", "", 0, 0, 0, sim.Microsecond, nil)
	if tr.Len() != 1 {
		t.Error("Len wrong")
	}
}

// goldenTrace builds the fixed trace used by the golden-file test: two
// labeled tracks, events recorded out of start-time order, and args maps
// with multiple keys (so key ordering is exercised too).
func goldenTrace() *Trace {
	tr := New()
	tr.NameProcess(1, "MI300A")
	tr.NameProcess(0, "host")
	tr.NameThread(1, 2, "XCD1")
	tr.NameThread(1, 1, "XCD0")
	tr.NameThread(0, 0, "CPU")
	tr.Span("kernel-b", "gpu", 1, 2, 40*sim.Microsecond, 90*sim.Microsecond,
		map[string]string{"workgroups": "304", "arch": "cdna3"})
	tr.Span("kernel-a", "gpu", 1, 1, 10*sim.Microsecond, 60*sim.Microsecond, nil)
	tr.Span("memcpy", "copy", 0, 0, 0, 10*sim.Microsecond,
		map[string]string{"bytes": "4194304"})
	return tr
}

// TestWriteJSONGolden pins the exported Chrome trace-event JSON byte for
// byte: stable event ordering (by start time), stable track-name
// metadata ordering (by pid, then tid), and stable field/key layout.
// The runner's future trace hooks rely on this format not drifting.
// Regenerate with: go test ./internal/trace -run Golden -update
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/chrome_trace.golden.json"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON drifted from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
	// The golden bytes must also be stable across repeated exports of
	// the same logical trace (map iteration must never leak through).
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := goldenTrace().WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("repeated WriteJSON produced different bytes")
		}
	}
}

func TestZeroLengthSpanBecomesInstant(t *testing.T) {
	tr := New()
	tr.Span("marker", "sync", 2, 1, 5*sim.Microsecond, 5*sim.Microsecond,
		map[string]string{"why": "signal"})
	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	e := ev[0]
	if e.Phase != "i" || e.Scope != "t" {
		t.Errorf("phase/scope = %q/%q, want i/t", e.Phase, e.Scope)
	}
	if e.TsUS != 5 || e.DurUS != 0 {
		t.Errorf("ts/dur = %g/%g, want 5/0", e.TsUS, e.DurUS)
	}
	if e.Args["why"] != "signal" {
		t.Errorf("args = %v", e.Args)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("instant event invalid: %v", err)
	}
}
