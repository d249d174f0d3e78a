package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistributionStats(t *testing.T) {
	d := new(Distribution)
	for _, v := range []float64{4, 2, 8, 6} {
		d.Observe(v)
	}
	if d.N() != 4 {
		t.Fatalf("N = %d", d.N())
	}
	if d.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", d.Mean())
	}
	if d.Min() != 2 || d.Max() != 8 {
		t.Errorf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.Sum() != 20 {
		t.Errorf("Sum = %v", d.Sum())
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := new(Distribution)
	if d.Mean() != 0 || d.Quantile(0.5) != 0 {
		t.Error("empty distribution stats should be zero")
	}
	if d.Min() != 0 || d.Max() != 0 {
		t.Errorf("empty Min/Max = %v/%v, want 0/0 (no infinities in tables)",
			d.Min(), d.Max())
	}
}

func TestFormatFloatNonFinite(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.NaN(), "n/a"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{1.5, "1.50"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Non-finite values must flow through AddRowf without corrupting the
	// rendered table.
	tbl := NewTable("t", "a", "b")
	tbl.AddRowf(math.NaN(), math.Inf(1))
	out := tbl.String()
	if !strings.Contains(out, "n/a") || !strings.Contains(out, "inf") {
		t.Errorf("table rendering of non-finite values:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "+Inf") {
		t.Errorf("raw Go float formatting leaked into table:\n%s", out)
	}
}

func TestDistributionQuantile(t *testing.T) {
	d := new(Distribution)
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if q := d.Quantile(0); q != 1 {
		t.Errorf("Q0 = %v", q)
	}
	if q := d.Quantile(1); q != 100 {
		t.Errorf("Q1 = %v", q)
	}
	med := d.Quantile(0.5)
	if med < 49 || med > 52 {
		t.Errorf("median = %v, want ~50", med)
	}
}

// Property: quantile is monotonic in q and bounded by min/max.
func TestQuantileMonotonicProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		d := new(Distribution)
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
			d.Observe(v)
		}
		qa, qb := math.Abs(a)-math.Trunc(math.Abs(a)), math.Abs(b)-math.Trunc(math.Abs(b))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := d.Quantile(qa), d.Quantile(qb)
		return va <= vb && va >= d.Min() && vb <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Observe order does not change the median.
func TestQuantileOrderInvarianceProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		d1 := new(Distribution)
		for _, v := range clean {
			d1.Observe(v)
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		d2 := new(Distribution)
		for _, v := range sorted {
			d2.Observe(v)
		}
		return d1.Quantile(0.5) == d2.Quantile(0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Peak Rates", "Arch", "FP64", "FP16")
	tb.AddRow("CDNA 2", "128", "1024")
	tb.AddRowf("CDNA 3", 128, 2048)
	out := tb.String()
	if !strings.Contains(out, "Peak Rates") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "CDNA 3") || !strings.Contains(out, "2048") {
		t.Errorf("missing row data:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("x")
	if got := tb.Rows()[0]; len(got) != 3 {
		t.Errorf("padded row length = %d, want 3", len(got))
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := []struct{ got, want string }{
		{FormatBytes(512), "512 B"},
		{FormatBytes(2048), "2.0 KiB"},
		{FormatBytes(128 << 30), "128.0 GiB"},
		{FormatRate(5.3e12), "5.30 TB/s"},
		{FormatRate(64e9), "64.0 GB/s"},
		{FormatFlops(61.3e12), "61.3 TFLOPS"},
		{FormatFlops(1.96e15), "1.96 PFLOPS"},
		{FormatFloat(2), "2"},
		{FormatFloat(2.75), "2.75"},
		{FormatFloat(0.4), "0.4000"},
		{FormatFloat(123.456), "123.5"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestSeriesBarChart(t *testing.T) {
	var s Series
	s.Name = "Speedup"
	s.Add("OpenFOAM", 2.75)
	s.Add("HPCG", 1.6)
	out := s.BarChart(20)
	if !strings.Contains(out, "OpenFOAM") || !strings.Contains(out, "2.75") {
		t.Errorf("bad chart:\n%s", out)
	}
	// The max bar should be exactly the requested width.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "OpenFOAM") && strings.Count(line, "#") != 20 {
			t.Errorf("max bar width = %d, want 20", strings.Count(line, "#"))
		}
	}
}
