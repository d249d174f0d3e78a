// Command perfbench is the repository benchmark. From one process it drives
// the two end-to-end paths users run: the experiment suite through
// runner.RunSuite (what cmd/repro does), and jobs through apusimd's HTTP
// API (service.New(cfg).Handler() on a loopback listener, with a data dir
// on disk so every fsync is paid). It checks every op's output against
// pinned digests and prints one JSON result line:
//
//	bash perfbench/run.sh --workload suite-timing --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around calls into each layer, keeps them in memory, writes
// them out at the end, and reports the per-layer metrics derived from them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// env is one run's settings and shared state.
type env struct {
	seconds time.Duration
	dir     string // this run's scratch dir, inside the checkout
	dig     *digests
	plan    *plan
	tr      *tracer // nil for untraced runs
	log     io.Writer
}

// workloads maps each workload name to the function that runs it. Why
// each exists is recorded in BENCHMARK.json and README.md.
var workloads = map[string]func(*env) (*outcome, error){
	"suite-timing": func(e *env) (*outcome, error) { return runSuite(e, timingIDs()) },
	"serve-hit":    func(e *env) (*outcome, error) { return runServeHit(e) },
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "suite-timing or serve-hit")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "scratch directory for data dirs and span dumps")
	writeDigests := fs.String("write-digests", "", "compute the output and manifest digests and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests != "" {
		if err := computeDigests(*writeDigests); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (suite-timing, serve-hit), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dig, err := loadDigests()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// The scratch dir is left in place. Deleting the tens of thousands of
	// store files a serve run creates frees their blocks, and on a disk
	// mounted with online discard that slows every fsync for tens of
	// seconds afterwards — inside the next run's measurement.
	e := &env{
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     dir,
		dig:     dig,
		plan:    newPlan(*seed),
		log:     stderr,
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	out, err := runWorkload(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := e.tr.dump(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
