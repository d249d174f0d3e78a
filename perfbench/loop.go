package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports: ops attempted and failed, and its
// metrics (end-to-end untraced, per-layer traced).
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// set records a metric. A value that could not be measured (no
// successful op) is reported as 0; such a run also reports failed ops.
func (o *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// setOnce records a metric unless an earlier measurement set it.
func (o *outcome) setOnce(name string, v float64, unit string) {
	if _, ok := o.metrics[name]; !ok {
		o.set(name, v, unit)
	}
}

// count adds one checked op: err non-nil means it failed.
func (o *outcome) count(err error, log io.Writer, what string) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(log, "perfbench: %s failed: %v\n", what, err)
		}
	}
}

// quantile is the linearly interpolated q-quantile of v (v is sorted in
// place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

// readMetric samples one runtime/metrics counter.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// liveHeap forces a collection and returns the heap bytes still live.
func liveHeap() int64 {
	runtime.GC()
	return int64(readMetric("/gc/heap/live:bytes"))
}

// op is one closed-loop operation. tr is nil for untraced ops; root is
// the op's root span when traced.
type op func(tr *tracer, root int) error

// loopResult is what a closed loop measured.
type loopResult struct {
	attempted, failed int64
	lat               []float64 // ms, successful ops
	traced, untraced  []float64 // ms, successful ops, by tracing
	wall              time.Duration
	alloc             uint64 // heap bytes allocated during the loop
}

// closedLoop runs clients that each issue their next op only once the
// previous one has returned, until d has passed; ops in flight at the
// deadline finish and count. With a tracer, every other op of each client
// is traced under a root span called name, so traced and untraced ops
// share the same conditions and their latency difference is the tracing
// overhead.
func closedLoop(name string, clients int, d time.Duration, tr *tracer, log io.Writer, run op) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	a0 := allocated()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				opTr := tr
				if k%2 == 1 {
					opTr = nil
				}
				root := opTr.begin(name, 0)
				t0 := time.Now()
				err := run(opTr, root)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				opTr.end(root)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.failed <= 5 {
						fmt.Fprintf(log, "perfbench: op %d of client %d failed: %v\n", k, c, err)
					}
				} else {
					res.lat = append(res.lat, ms)
					if opTr != nil {
						res.traced = append(res.traced, ms)
					} else {
						res.untraced = append(res.untraced, ms)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.alloc = allocated() - a0
	return res
}

// add counts a loop's ops into the outcome.
func (o *outcome) add(l loopResult) {
	o.attempted += l.attempted
	o.failed += l.failed
}

// endToEnd sets the user-facing metrics of an untraced run.
func (o *outcome) endToEnd(setups []float64, l loopResult) {
	o.add(l)
	o.set("setup_s", median(setups), "s")
	o.set("ops_per_s", float64(len(l.lat))/l.wall.Seconds(), "1/s")
	o.set("op_p50_ms", quantile(l.lat, 0.5), "ms")
	o.set("op_p99_ms", quantile(l.lat, 0.99), "ms")
	o.set("alloc_kb_per_op", float64(l.alloc)/1024/float64(l.attempted), "KiB")
}

// overhead sets the tracing overhead: the traced ops' median latency over
// the untraced ops' of the same loop, in percent.
func (o *outcome) overhead(l loopResult) {
	if len(l.traced) == 0 || len(l.untraced) == 0 {
		return
	}
	t, u := quantile(l.traced, 0.5), quantile(l.untraced, 0.5)
	o.set("trace.overhead_pct", 100*(t-u)/u, "%")
}
