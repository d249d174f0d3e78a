package apusim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// runRASSuite runs the two telemetry-instrumented RAS experiments at the
// given parallelism degree.
func runRASSuite(t *testing.T, parallel int) *runner.SuiteResult {
	t.Helper()
	suite, err := Experiments().RunSuite(runner.Options{
		Parallel: parallel, IDs: []string{"raschan", "rasecc"},
	})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	for _, r := range suite.Results {
		if r.Failed() {
			t.Fatalf("%s failed (%s): %v", r.ID, r.Status, r.Err)
		}
		if r.TelemetryDump == nil || r.Telemetry == nil {
			t.Fatalf("%s recorded no telemetry", r.ID)
		}
	}
	return suite
}

// dumpFor returns the named run's telemetry dump.
func dumpFor(t *testing.T, s *runner.SuiteResult, id string) *telemetry.Dump {
	t.Helper()
	for _, r := range s.Results {
		if r.ID == id {
			return r.TelemetryDump
		}
	}
	t.Fatalf("no result for %s", id)
	return nil
}

// seriesValues returns the named series from a dump.
func seriesValues(t *testing.T, d *telemetry.Dump, name string) []float64 {
	t.Helper()
	for _, s := range d.Series {
		if s.Name == name {
			return s.Values
		}
	}
	t.Fatalf("dump has no series %q", name)
	return nil
}

// valueAt returns the series value at the first sample at or after tNS.
func valueAt(t *testing.T, d *telemetry.Dump, name string, tNS float64) float64 {
	t.Helper()
	vals := seriesValues(t, d, name)
	for i, ts := range d.TimesNS {
		if ts >= tNS {
			return vals[i]
		}
	}
	t.Fatalf("no sample at or after %gns", tNS)
	return 0
}

// TestTelemetryDeterministicAcrossParallelism pins the core telemetry
// guarantee: identical seed and fault plan produce byte-identical series
// files (JSON and CSV) at any -parallel degree.
func TestTelemetryDeterministicAcrossParallelism(t *testing.T) {
	s1 := runRASSuite(t, 1)
	s4 := runRASSuite(t, 4)

	var j1, j4 bytes.Buffer
	if err := s1.WriteTelemetryRuns(&j1); err != nil {
		t.Fatal(err)
	}
	if err := s4.WriteTelemetryRuns(&j4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j4.Bytes()) {
		t.Fatal("telemetry JSON differs between -parallel 1 and -parallel 4")
	}
	if !strings.Contains(j1.String(), runner.TelemetryRunsSchema) {
		t.Fatalf("telemetry file does not carry schema %q", runner.TelemetryRunsSchema)
	}

	for i := range s1.Results {
		var c1, c4 bytes.Buffer
		if err := s1.Results[i].TelemetryDump.WriteCSV(&c1); err != nil {
			t.Fatal(err)
		}
		if err := s4.Results[i].TelemetryDump.WriteCSV(&c4); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1.Bytes(), c4.Bytes()) {
			t.Fatalf("%s: telemetry CSV differs between parallelism degrees", s1.Results[i].ID)
		}
		if !strings.HasPrefix(c1.String(), "t_ns,") {
			t.Fatalf("%s: CSV missing t_ns header: %q", s1.Results[i].ID, c1.String()[:40])
		}
	}
}

// TestRASChanSeriesShowCliff asserts the sampled raschan series step down
// the retirement cliff between the 1/2/3 ms fault timestamps.
func TestRASChanSeriesShowCliff(t *testing.T) {
	d := dumpFor(t, runRASSuite(t, 2), "raschan")

	// Live channels: 128 healthy, then 112 / 80 / 16 after each fault.
	for _, c := range []struct {
		atNS float64
		want float64
	}{{0, 128}, {1.01e6, 112}, {2.01e6, 80}, {3.01e6, 16}} {
		if got := valueAt(t, d, "hbm.live_channels", c.atNS); got != c.want {
			t.Errorf("hbm.live_channels at %gns = %g, want %g", c.atNS, got, c.want)
		}
	}

	// Measured streaming bandwidth: a strictly decreasing staircase.
	stages := []float64{
		valueAt(t, d, "hbm.measured_bw", 0),
		valueAt(t, d, "hbm.measured_bw", 1.1e6),
		valueAt(t, d, "hbm.measured_bw", 2.1e6),
		valueAt(t, d, "hbm.measured_bw", 3.1e6),
	}
	for i := 1; i < len(stages); i++ {
		if !(stages[i] > 0 && stages[i] < stages[i-1]) {
			t.Errorf("measured_bw stage %d = %g not strictly below stage %d = %g",
				i, stages[i], i-1, stages[i-1])
		}
	}
}

// TestRASECCSeriesShowDecay asserts the rasecc series show the storm: the
// sampled ECC retry rate ramps up window over window while the measured
// bandwidth decays.
func TestRASECCSeriesShowDecay(t *testing.T) {
	d := dumpFor(t, runRASSuite(t, 2), "rasecc")

	// Peak retry rate per fault window must grow with the storm rate.
	window := func(loNS, hiNS float64) float64 {
		vals := seriesValues(t, d, "hbm.ecc_retries")
		peak := 0.0
		for i, ts := range d.TimesNS {
			if ts > loNS && ts <= hiNS && vals[i] > peak {
				peak = vals[i]
			}
		}
		return peak
	}
	w1 := window(1e6, 2e6)
	w2 := window(2e6, 3e6)
	w3 := window(3e6, 4.1e6)
	if !(w1 > 0 && w2 > w1 && w3 > w2) {
		t.Errorf("ECC retry peaks not escalating: %g, %g, %g", w1, w2, w3)
	}

	bw := []float64{
		valueAt(t, d, "hbm.measured_bw", 0),
		valueAt(t, d, "hbm.measured_bw", 1.1e6),
		valueAt(t, d, "hbm.measured_bw", 2.1e6),
		valueAt(t, d, "hbm.measured_bw", 3.1e6),
	}
	for i := 1; i < len(bw); i++ {
		if !(bw[i] > 0 && bw[i] < bw[i-1]) {
			t.Errorf("measured_bw did not decay at stage %d: %g >= %g", i, bw[i], bw[i-1])
		}
	}
}

// TestWriteTraceMixesSpansAndCounters checks the unified trace writer
// emits both complete ('X') span events and counter ('C') events when a
// sampled recorder is composed with a dispatch timeline.
func TestWriteTraceMixesSpansAndCounters(t *testing.T) {
	p, err := NewMI300A()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	rec := NewRecorder()
	p.Instrument(rec)
	rec.ObserveEngine(eng)
	rec.SetCadence(50 * Microsecond)
	if n := NewSampler(eng, rec, 0).Arm(200 * Microsecond); n == 0 {
		t.Fatal("sampler armed no ticks")
	}
	eng.RunAll()

	var buf bytes.Buffer
	res, err := WriteTrace(&buf, TraceSpec{Dispatch: true, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fig13 == nil || res.Events == 0 {
		t.Fatalf("trace result incomplete: %+v", res)
	}
	out := buf.String()
	if !strings.Contains(out, `"ph":"X"`) {
		t.Error("trace has no complete ('X') events")
	}
	if !strings.Contains(out, `"ph":"C"`) {
		t.Error("trace has no counter ('C') events")
	}
}

// TestManifestEmbedsTelemetrySummary checks the run manifest carries a
// telemetry block for instrumented runs, omits it for the rest, and keeps
// the v1 schema either way.
func TestManifestEmbedsTelemetrySummary(t *testing.T) {
	suite, err := Experiments().RunSuite(runner.Options{
		Parallel: 2, IDs: []string{"raslink", "raschan"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runner.BuildManifest(suite).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema      string `json:"schema"`
		Experiments []struct {
			ID        string `json:"id"`
			Telemetry *struct {
				Schema  string `json:"schema"`
				Samples int    `json:"samples"`
				Probes  []struct {
					Name string `json:"name"`
				} `json:"probes"`
				Engine *struct {
					Classes []struct {
						Class  string `json:"class"`
						Fired  uint64 `json:"fired"`
						WallNS int64  `json:"wall_ns"`
					} `json:"classes"`
				} `json:"engine"`
			} `json:"telemetry"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Schema != runner.ManifestSchema {
		t.Fatalf("manifest schema = %q, want %q", m.Schema, runner.ManifestSchema)
	}
	for _, e := range m.Experiments {
		switch e.ID {
		case "raslink":
			if e.Telemetry != nil {
				t.Error("raslink (uninstrumented) has a telemetry block")
			}
		case "raschan":
			if e.Telemetry == nil {
				t.Fatal("raschan manifest record has no telemetry block")
			}
			if e.Telemetry.Schema != TelemetrySchema || e.Telemetry.Samples == 0 {
				t.Errorf("telemetry block malformed: schema %q, %d samples",
					e.Telemetry.Schema, e.Telemetry.Samples)
			}
			found := false
			for _, p := range e.Telemetry.Probes {
				if p.Name == "hbm.measured_bw" {
					found = true
				}
			}
			if !found {
				t.Error("telemetry summary does not name hbm.measured_bw")
			}
			if e.Telemetry.Engine == nil || len(e.Telemetry.Engine.Classes) == 0 {
				t.Error("telemetry summary has no engine profile")
			}
		}
	}
}

// TestNewOptionValidation pins the facade's no-option path: it matches
// the classic constructors.
func TestNewOptionValidation(t *testing.T) {
	a, err := New(SpecMI300A())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMI300A()
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec.TotalCUs() != b.Spec.TotalCUs() || len(a.XCDs) != len(b.XCDs) {
		t.Error("New with no options differs from NewMI300A")
	}
}
