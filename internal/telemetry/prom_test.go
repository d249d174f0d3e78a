package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func promDump() *Dump {
	return &Dump{
		Schema:  DumpSchema,
		TimesNS: []float64{0, 100, 200},
		Series: []Series{
			{Name: "hbm.bandwidth", Kind: KindRate, Values: []float64{0, 1.5e12, 2e12}},
			{Name: "cache.hit_rate", Kind: KindOccupancy, Values: []float64{0, 0.5, 0.875}},
			{Name: "never.sampled", Kind: KindGauge},
		},
		Engine: &EngineDump{
			Classes:        []ClassCount{{Class: "hbm.tick", Fired: 12}, {Class: "ras.fault", Fired: 2}},
			QueueHighWater: 7,
		},
	}
}

func TestWritePromTextSingleRun(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePromRuns(&buf, []PromRun{{Dump: promDump()}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP apusim_telemetry_samples",
		"# TYPE apusim_telemetry_samples gauge",
		"apusim_telemetry_samples 3",
		"# TYPE apusim_hbm_bandwidth gauge",
		"apusim_hbm_bandwidth 2e+12",
		"apusim_cache_hit_rate 0.875",
		"# TYPE apusim_events_fired_total counter",
		`apusim_events_fired_total{class="hbm.tick"} 12`,
		`apusim_events_fired_total{class="ras.fault"} 2`,
		"apusim_event_queue_high_water 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// A series that never sampled must not emit a stale gauge.
	if strings.Contains(out, "never_sampled") {
		t.Errorf("unsampled series leaked into prom output:\n%s", out)
	}
}

func TestWritePromRunsGroupsMetricFamilies(t *testing.T) {
	var buf bytes.Buffer
	runs := []PromRun{
		{ID: "runA", Dump: promDump()},
		{ID: "runB", Dump: promDump()},
		{ID: "skipped"},
		{ID: `a"b\c`, Dump: promDump()},
	}
	if err := WritePromRuns(&buf, runs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The exposition format forbids repeating a metric family header:
	// HELP/TYPE must appear exactly once per name even across runs.
	for _, header := range []string{
		"# TYPE apusim_telemetry_samples gauge",
		"# TYPE apusim_hbm_bandwidth gauge",
		"# TYPE apusim_events_fired_total counter",
	} {
		if got := strings.Count(out, header); got != 1 {
			t.Errorf("%q appears %d times, want 1", header, got)
		}
	}
	for _, want := range []string{
		`apusim_hbm_bandwidth{run="runA"} 2e+12`,
		`apusim_hbm_bandwidth{run="runB"} 2e+12`,
		`apusim_events_fired_total{class="hbm.tick",run="runA"} 12`,
		// Label values are escaped exactly once.
		`apusim_hbm_bandwidth{run="a\"b\\c"} 2e+12`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"hbm.stack0.bw": "apusim_hbm_stack0_bw",
		"0weird":        "apusim__0weird",
		"a-b c":         "apusim_a_b_c",
		"ok_name:x":     "apusim_ok_name:x",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromEscape(t *testing.T) {
	if got := promEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("promEscape = %q", got)
	}
}
