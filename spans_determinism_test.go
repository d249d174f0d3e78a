package apusim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/spans"
)

// runSpanSuite runs the three span experiments — including spanras, whose
// armed fault plan perturbs the recorder with events and ECC-retry
// children — at the given parallelism degree and sampling rate.
func runSpanSuite(t *testing.T, parallel int, rate float64) *runner.SuiteResult {
	t.Helper()
	suite, err := Experiments().RunSuite(runner.Options{
		Parallel: parallel, IDs: []string{"spanmem", "spandispatch", "spanras"},
		SpanSample: rate,
	})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	for _, r := range suite.Results {
		if r.Failed() {
			t.Fatalf("%s failed (%s): %v", r.ID, r.Status, r.Err)
		}
		if r.Spans == nil {
			t.Fatalf("%s recorded no spans", r.ID)
		}
	}
	return suite
}

// TestSpanDumpsDeterministicAcrossParallelism pins the PR 4 acceptance
// criterion: identical seed and flags produce byte-identical span files
// at -parallel 1 and -parallel 8, and across repeated runs.
func TestSpanDumpsDeterministicAcrossParallelism(t *testing.T) {
	write := func(s *runner.SuiteResult) []byte {
		var buf bytes.Buffer
		if err := s.WriteSpanRuns(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1 := write(runSpanSuite(t, 1, 1))
	b8 := write(runSpanSuite(t, 8, 1))
	if !bytes.Equal(b1, b8) {
		t.Fatal("span dump differs between -parallel 1 and -parallel 8")
	}
	again := write(runSpanSuite(t, 8, 1))
	if !bytes.Equal(b8, again) {
		t.Fatal("span dump differs across repeated runs at the same flags")
	}
	if !strings.Contains(string(b1), runner.SpanRunsSchema) {
		t.Fatalf("span file does not carry schema %q", runner.SpanRunsSchema)
	}
	if !strings.Contains(string(b1), spans.DumpSchema) {
		t.Fatalf("span file does not carry schema %q", spans.DumpSchema)
	}
}

// TestSpanSamplingDeterministicAndSubsetting checks a sub-unity sampling
// rate stays byte-deterministic across parallelism degrees and actually
// thins the dump relative to rate 1.
func TestSpanSamplingDeterministicAndSubsetting(t *testing.T) {
	write := func(s *runner.SuiteResult) []byte {
		var buf bytes.Buffer
		if err := s.WriteSpanRuns(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	full := runSpanSuite(t, 2, 1)
	h1 := write(runSpanSuite(t, 1, 0.5))
	h8 := write(runSpanSuite(t, 8, 0.5))
	if !bytes.Equal(h1, h8) {
		t.Fatal("sampled span dump differs between -parallel 1 and -parallel 8")
	}
	sampled := runSpanSuite(t, 2, 0.5)
	for _, r := range full.Results {
		var half *runner.Result
		for i := range sampled.Results {
			if sampled.Results[i].ID == r.ID {
				half = &sampled.Results[i]
			}
		}
		if half == nil {
			t.Fatalf("no sampled result for %s", r.ID)
		}
		if half.Spans.RootsSeen() != r.Spans.RootsSeen() {
			t.Errorf("%s: candidate count changed with the rate (%d vs %d)",
				r.ID, half.Spans.RootsSeen(), r.Spans.RootsSeen())
		}
		if half.Spans.RootsSampled() >= r.Spans.RootsSampled() {
			t.Errorf("%s: rate 0.5 sampled %d roots, full rate %d",
				r.ID, half.Spans.RootsSampled(), r.Spans.RootsSampled())
		}
	}
}

// TestSpanRasDumpRecordsFaults checks the fault-plan-armed run's recorder
// holds the ras.fault events and the ECC-retry stage, sampled roots with
// child spans under them, and an attribution report whose per-stage
// shares sum to 1 within 1% for every kind.
func TestSpanRasDumpRecordsFaults(t *testing.T) {
	suite := runSpanSuite(t, 2, 1)
	var rec *spans.Recorder
	for _, r := range suite.Results {
		if r.ID == "spanras" {
			rec = r.Spans
		}
	}
	if rec == nil {
		t.Fatal("no spanras recorder")
	}
	events := rec.Events()
	if len(events) != 2 {
		t.Fatalf("spanras recorder has %d events, want 2 ras.fault entries", len(events))
	}
	for _, e := range events {
		if e.Class != "ras.fault" {
			t.Errorf("event class %q, want ras.fault", e.Class)
		}
	}
	var ecc bool
	for _, s := range rec.Spans() {
		if s.Stage == spans.StageHBMECC {
			ecc = true
		}
	}
	if !ecc {
		t.Error("spanras recorder has no hbm.ecc child span")
	}
	if rec.RootsSampled() <= 0 || rec.Len() <= rec.RootsSampled() {
		t.Errorf("spanras recorder has %d spans over %d sampled roots, want roots > 0 and children beyond them",
			rec.Len(), rec.RootsSampled())
	}
	att := rec.Attribution()
	if att == nil || att.Schema != spans.AttributionSchema {
		t.Fatalf("spanras attribution %+v, want schema %q", att, spans.AttributionSchema)
	}
	for _, k := range att.Kinds {
		var share float64
		for _, s := range k.Stages {
			share += s.Share
		}
		if share < 0.99 || share > 1.01 {
			t.Errorf("spanras kind %s stage shares sum to %g, want 1 within 1%%", k.Kind, share)
		}
	}
}

// TestManifestEmbedsSpanAttribution checks span-bearing runs embed their
// attribution report in the run manifest and uninstrumented runs omit it,
// and that each kind's per-stage shares sum to 1 within 1% (the
// acceptance tolerance; the analyzer itself is exact).
func TestManifestEmbedsSpanAttribution(t *testing.T) {
	suite, err := Experiments().RunSuite(runner.Options{
		Parallel: 2, IDs: []string{"raslink", "spanmem"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runner.BuildManifest(suite).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Experiments []struct {
			ID    string             `json:"id"`
			Spans *spans.Attribution `json:"spans"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	for _, e := range m.Experiments {
		switch e.ID {
		case "raslink":
			if e.Spans != nil {
				t.Error("raslink (untraced) has a spans block")
			}
		case "spanmem":
			if e.Spans == nil {
				t.Fatal("spanmem manifest record has no spans block")
			}
			if e.Spans.Schema != spans.AttributionSchema {
				t.Errorf("attribution schema = %q", e.Spans.Schema)
			}
			for _, k := range e.Spans.Kinds {
				var share float64
				for _, s := range k.Stages {
					share += s.Share
				}
				if share < 0.99 || share > 1.01 {
					t.Errorf("kind %s stage shares sum to %g, want 1 within 1%%", k.Kind, share)
				}
			}
		}
	}
}
