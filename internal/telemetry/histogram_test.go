package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestExpBucketsLayout(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets returned %d bounds, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bound[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if n := len(LatencyBuckets()); n != 18 {
		t.Errorf("LatencyBuckets has %d bounds, want 18", n)
	}
}

func TestExpBucketsRejectsNonsense(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero start":     func() { ExpBuckets(0, 2, 3) },
		"negative start": func() { ExpBuckets(-1, 2, 3) },
		"factor one":     func() { ExpBuckets(1, 1, 3) },
		"zero n":         func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHistogramBucketing pins the bucketing rule: a value lands in the
// first bucket whose upper bound is >= the value (le is inclusive, as in
// Prometheus), values beyond the last bound land in the overflow bucket,
// and NaN observations are dropped.
func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4}, "")
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 5, math.NaN()} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	wantCounts := []uint64{2, 2, 1, 1} // [<=1, <=2, <=4, +Inf]
	for i, want := range wantCounts {
		if snap.Counts[i] != want {
			t.Errorf("bucket[%d] = %d, want %d (counts %v)", i, snap.Counts[i], want, snap.Counts)
		}
	}
	if snap.Count != 6 {
		t.Errorf("count = %d, want 6 (NaN dropped)", snap.Count)
	}
	if snap.Sum != 0.5+1+1.5+2+4+5 {
		t.Errorf("sum = %g, want %g", snap.Sum, 0.5+1+1.5+2+4+5)
	}
}

func TestSetHistogramGetOrCreate(t *testing.T) {
	s := NewSet()
	l := Label{Key: "tenant", Value: "a"}
	h1 := s.Histogram("lat_seconds", "help", []float64{1, 2}, l)
	h2 := s.Histogram("lat_seconds", "help", []float64{1, 2}, l)
	if h1 != h2 {
		t.Fatal("same name+labels returned distinct histograms")
	}
	if h3 := s.Histogram("lat_seconds", "help", []float64{1, 2}, Label{Key: "tenant", Value: "b"}); h3 == h1 {
		t.Fatal("different labels returned the same histogram")
	}

	for name, bounds := range map[string][]float64{
		"more buckets":                    {1, 2, 3},
		"same count, different upper end": {1, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registering with different buckets (%s) should panic", name)
				}
			}()
			s.Histogram("lat_seconds", "help", bounds, l)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a counter under a histogram name should panic")
			}
		}()
		s.Counter("lat_seconds", "help")
	}()

	a, b := Label{Key: "experiment", Value: "fig14"}, Label{Key: "tenant", Value: "t1"}
	if s.Histogram("two_seconds", "help", []float64{1}, a, b) != s.Histogram("two_seconds", "help", []float64{1}, b, a) {
		t.Error("the same two labels in either order returned distinct histograms")
	}

	odd := Label{Key: "path", Value: "a\"b\\c\nd"}
	he := s.Histogram("esc_seconds", "help", []float64{1}, odd)
	if s.Histogram("esc_seconds", "help", []float64{1}, odd) != he {
		t.Fatal("a value holding a quote, a backslash and a newline found a new series")
	}
	he.Observe(0.5)
	var sb strings.Builder
	if err := s.WritePromText(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `esc_seconds_count{path="a\"b\\c\nd"} 1` + "\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks the escaped series %q:\n%s", want, sb.String())
	}
}

// TestSetHistogramLookupAllocatesNothing pins the hit path apusimd takes
// on every completed job: finding an existing series, with one label or
// two, builds nothing.
func TestSetHistogramLookupAllocatesNothing(t *testing.T) {
	s := NewSet()
	bounds := LatencyBuckets()
	one := func() *Histogram {
		return s.Histogram("job_seconds", "help", bounds, Label{Key: "experiment", Value: "fig14"})
	}
	two := func() *Histogram {
		return s.Histogram("tenant_seconds", "help", bounds,
			Label{Key: "tenant", Value: "default"}, Label{Key: "experiment", Value: "fig14"})
	}
	for name, lookup := range map[string]func() *Histogram{"one label": one, "two labels": two} {
		h := lookup()
		if n := testing.AllocsPerRun(100, func() {
			if lookup() != h {
				t.Fatal("lookup found a different series")
			}
		}); n != 0 {
			t.Errorf("%s: Set.Histogram on an existing series allocated %.0f times, want 0", name, n)
		}
	}
}

// TestHistogramPromExposition pins the exact exposition text: cumulative
// _bucket samples with inclusive le labels and the mandatory +Inf bucket,
// then _sum and _count, with label sets rendered in sorted order
// regardless of which was registered first.
func TestHistogramPromExposition(t *testing.T) {
	s := NewSet()
	// Register "b" before "a": exposition must still sort a first.
	s.Histogram("req_seconds", "request latency", []float64{0.001, 0.002},
		Label{Key: "experiment", Value: "b"}).Observe(0.0015)
	ha := s.Histogram("req_seconds", "request latency", []float64{0.001, 0.002},
		Label{Key: "experiment", Value: "a"})
	ha.Observe(0.0005)
	ha.Observe(5)

	var b strings.Builder
	if err := s.WritePromText(&b); err != nil {
		t.Fatalf("WritePromText: %v", err)
	}
	want := strings.Join([]string{
		"# HELP req_seconds request latency",
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{experiment="a",le="0.001"} 1`,
		`req_seconds_bucket{experiment="a",le="0.002"} 1`,
		`req_seconds_bucket{experiment="a",le="+Inf"} 2`,
		`req_seconds_sum{experiment="a"} 5.0005`,
		`req_seconds_count{experiment="a"} 2`,
		`req_seconds_bucket{experiment="b",le="0.001"} 0`,
		`req_seconds_bucket{experiment="b",le="0.002"} 1`,
		`req_seconds_bucket{experiment="b",le="+Inf"} 1`,
		`req_seconds_sum{experiment="b"} 0.0015`,
		`req_seconds_count{experiment="b"} 1`,
		"",
	}, "\n")
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}

	// Scraping is read-only: a second render is byte-identical.
	var b2 strings.Builder
	_ = s.WritePromText(&b2)
	if b.String() != b2.String() {
		t.Error("repeated scrapes differ")
	}

	// Values() mirrors the aggregate samples for in-process consumers.
	v := s.Values()
	if v[`req_seconds_count{experiment="a"}`] != 2 {
		t.Errorf("Values count = %g, want 2", v[`req_seconds_count{experiment="a"}`])
	}
	if v[`req_seconds_sum{experiment="b"}`] != 0.0015 {
		t.Errorf("Values sum = %g, want 0.0015", v[`req_seconds_sum{experiment="b"}`])
	}
}
