// Package metrics provides the lightweight distributions and table/series
// renderers used by every experiment harness in the repository to print
// paper-style results.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Distribution accumulates scalar samples and reports summary statistics.
// The zero value is an empty distribution.
type Distribution struct {
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (d *Distribution) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N reports the number of samples.
func (d *Distribution) N() int { return len(d.samples) }

// Sum reports the sample total.
func (d *Distribution) Sum() float64 {
	var s float64
	for _, v := range d.samples {
		s += v
	}
	return s
}

// Mean reports the sample mean, or 0 with no samples.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.Sum() / float64(len(d.samples))
}

// Min reports the smallest sample, or 0 with no samples (matching Mean,
// so empty distributions never leak infinities into tables).
func (d *Distribution) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, v := range d.samples {
		if v < m {
			m = v
		}
	}
	return m
}

// Max reports the largest sample, or 0 with no samples.
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, v := range d.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile reports the q-quantile (0..1) by nearest-rank on the sorted
// samples. It returns 0 with no samples.
func (d *Distribution) Quantile(q float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[n-1]
	}
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return d.samples[idx]
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row of cells. Short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row where each cell is formatted from a value using %v
// for strings and %.4g for floats.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, FormatFloat(v))
		case float32:
			row = append(row, FormatFloat(float64(v)))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the underlying rows (for tests).
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table with box-drawing-free alignment suitable for
// terminals and golden files.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if w := len([]rune(c)); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len([]rune(c)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to distinguish. Non-finite values are
// rendered as "n/a" (NaN) and "inf"/"-inf", never raw, so a missing
// statistic cannot corrupt a table's alignment.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	a := math.Abs(v)
	switch {
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// FormatRate renders a bytes-per-second rate with a decimal-prefix unit
// (TB/s, GB/s, ...), matching the units the paper quotes.
func FormatRate(bytesPerSec float64) string {
	switch {
	case bytesPerSec >= 1e12:
		return fmt.Sprintf("%.2f TB/s", bytesPerSec/1e12)
	case bytesPerSec >= 1e9:
		return fmt.Sprintf("%.1f GB/s", bytesPerSec/1e9)
	case bytesPerSec >= 1e6:
		return fmt.Sprintf("%.1f MB/s", bytesPerSec/1e6)
	default:
		return fmt.Sprintf("%.0f B/s", bytesPerSec)
	}
}

// FormatFlops renders a flops rate with a decimal-prefix unit.
func FormatFlops(flops float64) string {
	switch {
	case flops >= 1e15:
		return fmt.Sprintf("%.2f PFLOPS", flops/1e15)
	case flops >= 1e12:
		return fmt.Sprintf("%.1f TFLOPS", flops/1e12)
	case flops >= 1e9:
		return fmt.Sprintf("%.1f GFLOPS", flops/1e9)
	default:
		return fmt.Sprintf("%.0f FLOPS", flops)
	}
}

// Series is a named sequence of (label, value) points, used for bar-chart
// style figures (e.g., paper Figs. 20 and 21).
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends one point.
func (s *Series) Add(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// BarChart renders the series as a horizontal ASCII bar chart scaled to
// width characters for the maximum value.
func (s *Series) BarChart(width int) string {
	if width <= 0 {
		width = 40
	}
	maxV := 0.0
	maxL := 0
	for i, v := range s.Values {
		if v > maxV {
			maxV = v
		}
		if l := len(s.Labels[i]); l > maxL {
			maxL = l
		}
	}
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "-- %s --\n", s.Name)
	}
	for i, v := range s.Values {
		bar := 0
		if maxV > 0 {
			bar = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s |%s %s\n", maxL, s.Labels[i], strings.Repeat("#", bar), FormatFloat(v))
	}
	return b.String()
}
