package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file provides service-level latency histograms: fixed-bucket
// distributions for wall-clock quantities observed by long-running
// processes (queue wait, run time, end-to-end latency in apusimd), as
// opposed to the simulated-time probes the Recorder samples. A Histogram
// renders in the Prometheus histogram exposition format (_bucket lines
// with cumulative counts and le labels, plus _sum and _count), so the
// daemon's /v1/metrics endpoint feeds histogram_quantile() directly.

// ExpBuckets returns n exponentially growing bucket upper bounds:
// start, start*factor, start*factor², …. It panics on non-positive
// start, a factor <= 1, or n < 1 — bucket layouts are static
// configuration, so a bad one is a programming bug.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || math.IsNaN(start) || math.IsInf(start, 0) {
		panic(fmt.Sprintf("telemetry: ExpBuckets start %g must be a positive number", start))
	}
	if factor <= 1 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("telemetry: ExpBuckets factor %g must be > 1", factor))
	}
	if n < 1 {
		panic(fmt.Sprintf("telemetry: ExpBuckets n %d must be >= 1", n))
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// LatencyBuckets is the default bucket layout for second-denominated
// latency histograms: 1ms doubling up to ~131s, which spans a cache hit
// through the 2-minute default job deadline.
func LatencyBuckets() []float64 { return ExpBuckets(0.001, 2, 18) }

// Histogram is one fixed-bucket distribution variable. Observations are
// counted into the first bucket whose upper bound is >= the value; values
// beyond the last bound land in an implicit +Inf overflow bucket. All
// methods are safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	key    string    // rendered label suffix, the family's dedup key

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	sum    float64
	count  uint64
}

// newHistogram validates the bucket layout and builds the variable; key
// is its rendered label suffix (appendLabels).
func newHistogram(bounds []float64, key string) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram with no buckets")
	}
	b := append([]float64(nil), bounds...)
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("telemetry: histogram bound %g is not finite", v))
		}
		if i > 0 && v <= b[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %g", v))
		}
	}
	return &Histogram{
		bounds: b,
		key:    key,
		counts: make([]uint64, len(b)+1),
	}
}

// Observe records one value. NaN observations are dropped — they would
// poison the sum and cannot be bucketed.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// element for the +Inf overflow bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}
