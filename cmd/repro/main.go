// Command repro regenerates the paper's evaluation: every table and
// figure, printed as text tables and ASCII charts.
//
// Experiments come from the shared registry (apusim.Experiments) and run
// on the internal/runner parallel executor: each experiment gets its own
// goroutine, its own simulation engine, panic isolation, and a
// wall-clock deadline. Output is printed in registration order, so it is
// byte-identical for any -parallel degree.
//
// Usage:
//
//	repro                      # run the full evaluation in parallel
//	repro -parallel 1          # ... sequentially (same output bytes)
//	repro -exp fig20           # run a single experiment
//	repro -list                # list experiment ids
//	repro -manifest run.json   # also write a structured run manifest
//	repro -summary             # print the suite summary table to stderr
//	repro -retries 2           # re-run failing experiments with fresh engines
//	repro -faults plan.json    # inject a RAS fault plan into an MI300A run
//	repro -telemetry out.json  # write sampled telemetry series for runs that record them
//	repro -sample-ns 100000    # telemetry sampling cadence (simulated ns)
//	repro -spans spans.json    # write causal span dumps for runs that record them
//	repro -span-sample 0.25    # span head-sampling rate
//	repro -prom metrics.prom   # write final telemetry in Prometheus text format
//	repro -audit               # arm runtime invariant auditing on every run
//	repro -audit -strict       # ... and fail any run with an audit violation
//	repro -audit-out audit.json # write per-run audit reports (implies -audit)
//	repro -chaos-seed 7 -chaos-count 8  # register seeded chaos fault storms
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	apusim "repro"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment by id (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size (1 = sequential)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-experiment wall-clock deadline (0 = none)")
	manifest := flag.String("manifest", "", "write a JSON run manifest to this file")
	summary := flag.Bool("summary", false, "print the suite summary table to stderr")
	injectPanic := flag.Bool("inject-panic", false, "register a crashing experiment (tests panic isolation)")
	tracePrefix := flag.String("trace", "", "write Chrome traces to <prefix>-fig14.json and <prefix>-dispatch.json")
	retries := flag.Int("retries", 0, "re-run a failing experiment up to N more times, each on a fresh engine")
	faults := flag.String("faults", "", "JSON RAS fault plan: run it against an MI300A platform as experiment \"faultplan\"")
	telemetryOut := flag.String("telemetry", "", "write sampled telemetry series (JSON) for runs that record them")
	sampleNS := flag.Int64("sample-ns", 0, "telemetry sampling cadence in simulated nanoseconds (0 = default)")
	spansOut := flag.String("spans", "", "write causal span dumps (JSON) for runs that record them")
	spanSample := flag.Float64("span-sample", 1, "span head-sampling rate in (0, 1]; outside that range traces everything")
	promOut := flag.String("prom", "", "write final telemetry state in Prometheus text exposition format")
	auditOn := flag.Bool("audit", false, "arm runtime invariant auditing (conservation ledgers, drain quiescence) on every run")
	strict := flag.Bool("strict", false, "fail runs on audit violations instead of recording them as degraded (implies -audit)")
	auditOut := flag.String("audit-out", "", "write per-run audit reports (JSON) to this file (implies -audit)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "register seeded chaos fault-storm experiments (0 = off); implies -audit")
	chaosCount := flag.Int("chaos-count", 8, "how many chaos storms -chaos-seed registers (seeds seed, seed+1, ...)")
	flag.Parse()
	if *strict || *auditOut != "" || *chaosSeed != 0 {
		*auditOn = true
	}

	if *tracePrefix != "" {
		if err := writeTraces(*tracePrefix); err != nil {
			fmt.Fprintf(os.Stderr, "repro: trace: %v\n", err)
			os.Exit(1)
		}
	}

	reg := apusim.Experiments()
	if *injectPanic {
		reg = reg.Clone()
		reg.MustRegister(runner.Experiment{
			ID: "_panic", Desc: "injected crash (-inject-panic)",
			Run: func(*runner.Ctx) (string, error) {
				panic("injected by -inject-panic")
			},
		})
	}
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: faults: %v\n", err)
			os.Exit(2)
		}
		plan, err := apusim.ParseFaultPlan(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: faults: %v\n", err)
			os.Exit(2)
		}
		reg = reg.Clone()
		reg.MustRegister(runner.Experiment{
			ID:   "faultplan",
			Desc: fmt.Sprintf("RAS fault plan %s (%d faults)", *faults, len(plan.Faults)),
			Run: func(ctx *runner.Ctx) (string, error) {
				return apusim.ExperimentFaultPlan(ctx, plan)
			},
		})
		// A fault-plan invocation runs just the plan unless -exp selects
		// something else on top of it.
		if *exp == "" {
			*exp = "faultplan"
		}
	}
	var chaosIDs []string
	if *chaosSeed != 0 {
		reg = reg.Clone()
		before := len(reg.IDs())
		apusim.RegisterChaosStorms(reg, *chaosSeed, *chaosCount)
		chaosIDs = reg.IDs()[before:]
	}

	if *list {
		fmt.Print(reg.List())
		return
	}

	opts := runner.Options{
		Parallel:    *parallel,
		Timeout:     *timeout,
		Retries:     *retries,
		SampleEvery: sim.Time(*sampleNS) * sim.Nanosecond,
		SpanSample:  *spanSample,
		Audit:       *auditOn,
		Strict:      *strict,
		OnResult: func(r runner.Result) {
			if err := runner.WriteResult(os.Stdout, r); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				os.Exit(1)
			}
		},
	}
	if *exp != "" {
		opts.IDs = []string{*exp}
	} else if len(chaosIDs) > 0 {
		// A chaos invocation runs just its storms unless -exp selects
		// something else on top of them.
		opts.IDs = chaosIDs
	}

	suite, err := reg.RunSuite(opts)
	if err != nil {
		var oe *runner.OptionsError
		if errors.As(err, &oe) {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "repro: %v (use -list)\n", err)
		}
		os.Exit(2)
	}

	if *summary {
		fmt.Fprint(os.Stderr, suite.SummaryTable().String())
	}
	if *manifest != "" {
		if err := writeManifest(*manifest, suite); err != nil {
			fmt.Fprintf(os.Stderr, "repro: manifest: %v\n", err)
			os.Exit(1)
		}
	}
	if *telemetryOut != "" {
		if err := writeTelemetry(*telemetryOut, suite); err != nil {
			fmt.Fprintf(os.Stderr, "repro: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, suite); err != nil {
			fmt.Fprintf(os.Stderr, "repro: spans: %v\n", err)
			os.Exit(1)
		}
	}
	if *promOut != "" {
		if err := writeProm(*promOut, suite); err != nil {
			fmt.Fprintf(os.Stderr, "repro: prom: %v\n", err)
			os.Exit(1)
		}
	}
	if *auditOut != "" {
		if err := writeAudit(*auditOut, suite); err != nil {
			fmt.Fprintf(os.Stderr, "repro: audit: %v\n", err)
			os.Exit(1)
		}
	}
	if *auditOn {
		for _, r := range suite.Violated() {
			switch {
			case r.Audit != nil && !r.Audit.OK():
				for _, v := range r.Audit.Violations {
					fmt.Fprintf(os.Stderr, "repro: %s audit violation: %s\n", r.ID, v.String())
				}
			default:
				fmt.Fprintf(os.Stderr, "repro: %s violated: %v\n", r.ID, r.Err)
			}
		}
	}
	if failed := suite.Failed(); len(failed) > 0 {
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "repro: %s failed (%s): %v\n", r.ID, r.Status, r.Err)
		}
		os.Exit(1)
	}
}

func writeManifest(path string, suite *runner.SuiteResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runner.BuildManifest(suite).WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTelemetry writes the sampled series of every telemetry-bearing
// run — in registration order, so the file is byte-identical at any
// -parallel degree.
func writeTelemetry(path string, suite *runner.SuiteResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := suite.WriteTelemetryRuns(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the causal span dumps of every span-bearing run —
// in registration order, so the file is byte-identical at any -parallel
// degree.
func writeSpans(path string, suite *runner.SuiteResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := suite.WriteSpanRuns(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProm writes each telemetry-bearing run's final state in
// Prometheus text exposition format, labeled by run ID.
func writeProm(path string, suite *runner.SuiteResult) error {
	var runs []telemetry.PromRun
	for _, r := range suite.Results {
		if r.TelemetryDump != nil {
			runs = append(runs, telemetry.PromRun{ID: r.ID, Dump: r.TelemetryDump})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WritePromRuns(f, runs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeAudit writes each audited run's invariant report — in
// registration order, so the file is byte-identical at any -parallel
// degree.
func writeAudit(path string, suite *runner.SuiteResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := suite.WriteAuditRuns(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraces exports the Fig. 14 program timelines and a Fig. 13
// dispatch as Chrome traces.
func writeTraces(prefix string) error {
	f14, err := os.Create(prefix + "-fig14.json")
	if err != nil {
		return err
	}
	defer f14.Close()
	if _, err := apusim.WriteTrace(f14, apusim.TraceSpec{Fig14N: 1 << 22}); err != nil {
		return err
	}
	fd, err := os.Create(prefix + "-dispatch.json")
	if err != nil {
		return err
	}
	defer fd.Close()
	if _, err := apusim.WriteTrace(fd, apusim.TraceSpec{Dispatch: true}); err != nil {
		return err
	}
	fmt.Printf("wrote %s-fig14.json and %s-dispatch.json\n", prefix, prefix)
	return nil
}
