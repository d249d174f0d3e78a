// Command apusimd is the simulation-as-a-service daemon: a long-running
// HTTP front door over the experiment registry and the RAS fault
// injector, for sweep-style workloads that submit many overlapping run
// specs.
//
// The API (all under /v1):
//
//	POST /v1/jobs               submit a job spec, get a job status back
//	GET  /v1/jobs               list every job, submission order
//	GET  /v1/jobs/{id}          one job's status (?watch=1 streams NDJSON)
//	GET  /v1/jobs/{id}/manifest the run's apusim-run-manifest/v1 JSON
//	GET  /v1/jobs/{id}/trace    joined lifecycle + simulation trace
//	GET  /v1/debug              live introspection (workers, queue, flight recorder)
//	GET  /v1/metrics            service counters + histograms, Prometheus text
//	GET  /v1/healthz            liveness + drain flag
//	GET  /v1/experiments        runnable experiment IDs
//
// Results are cached under the SHA-256 content address of the normalized
// spec: resubmitting identical work returns the stored manifest
// byte-for-byte, and identical in-flight submissions coalesce onto one
// run. A fresh submission that finds the queue full (-queue) is shed with
// 429 and a Retry-After; the X-Tenant header labels a job's log lines,
// latency histograms and shed counters. SIGINT/SIGTERM drains gracefully
// — new submissions get 503, admitted jobs finish, and a second signal
// (or the -drain-grace deadline) forces cancellation. SIGQUIT dumps the
// debug snapshot (worker states plus the flight recorder of recent
// lifecycle events) to stderr without stopping the daemon.
//
// With -data-dir the daemon is crash-safe: results persist in a
// content-addressed store under the directory, every admission is
// journaled before the client sees 202, and a restart replays the
// journal — jobs queued at the crash re-run automatically, jobs that
// were mid-simulation park as "interrupted" and re-run on their next
// status fetch, and finished results come back byte-identical from the
// store. Corrupt or truncated store files are quarantined, never served.
// A storage failure (full disk, failed fsync) never kills the daemon: it
// trips a circuit breaker into degraded memory-only mode. A submission
// whose journal record cannot be fsynced is refused with 503 — never
// acknowledged — and while degraded, new work is accepted with
// non_durable:true (or refused outright under -require-durability). A
// background probe (-durability-probe) re-tests the disk and re-arms
// durability with a journal checkpoint once it heals; /v1/healthz
// reports the current durability state.
//
// Every job carries a trace ID that appears in the daemon's structured
// logs (-log-level, -log-format), the job's JSON, and its /trace view.
// Profiling endpoints (net/http/pprof) are served only when -debug-addr
// names a separate listener, so they never share a port with the API.
//
// Usage:
//
//	apusimd                        # listen on :8080
//	apusimd -listen 127.0.0.1:9090 # elsewhere
//	apusimd -workers 4 -queue 128  # pool and backlog sizing
//	apusimd -cache-bytes 16777216  # result cache LRU budget
//	apusimd -job-timeout 30s       # one deadline per job, retries included
//	apusimd -data-dir /var/lib/apusimd  # survive crashes and restarts
//	apusimd -require-durability    # 503 while degraded instead of non-durable 202s
//	apusimd -log-format json -log-level debug  # structured logs on stderr
//	apusimd -debug-addr 127.0.0.1:6060         # pprof on a private port
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	apusim "repro"
	"repro/internal/durable"
	"repro/internal/service"
)

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (debug, info, warn, error)", s)
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (text, json)", format)
}

// serveDebug mounts net/http/pprof on its own listener. The profiling
// surface is deliberately not on the API mux: it only exists when the
// operator names a (typically loopback) address for it.
func serveDebug(addr string, logger *slog.Logger) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := (&http.Server{Handler: mux}).Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Error("debug listener stopped", "error", err.Error())
		}
	}()
	return ln, nil
}

func main() {
	listen := flag.String("listen", ":8080", "address to serve the HTTP API on")
	workers := flag.Int("workers", 0, "worker-pool size (0 = one per CPU)")
	queueDepth := flag.Int("queue", 64, "max jobs admitted but not yet running")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache LRU byte budget")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job wall-clock deadline, retries included")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long a graceful drain may take before jobs are cancelled")
	dataDir := flag.String("data-dir", "", "directory for the durable result store and job journal (empty = memory-only)")
	requireDurability := flag.Bool("require-durability", false, "refuse submissions with 503 while storage durability is degraded, instead of accepting them as non-durable")
	durabilityProbe := flag.Duration("durability-probe", 2*time.Second, "cadence of the degraded-mode disk probe that re-arms durability")
	chaosSeed := flag.Uint64("chaos-seed", 0, "TESTING: PRNG seed for deterministic disk-fault injection")
	chaosWriteErr := flag.Float64("chaos-write-err-rate", 0, "TESTING: per-write probability of an injected I/O failure")
	chaosSyncErr := flag.Float64("chaos-sync-err-rate", 0, "TESTING: per-fsync probability of an injected failure")
	chaosOpErr := flag.Float64("chaos-op-err-rate", 0, "TESTING: per-metadata-op probability of an injected failure")
	chaosENOSPC := flag.Int64("chaos-enospc-bytes", 0, "TESTING: fail writes with ENOSPC after this many bytes")
	chaosHealAfter := flag.Duration("chaos-heal-after", 0, "TESTING: stop all fault injection after this interval (0 = never)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	debugAddr := flag.String("debug-addr", "", "separate address for net/http/pprof (empty = profiling disabled)")
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apusimd: %v\n", err)
		os.Exit(2)
	}
	logger, err := newLogger(*logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apusimd: %v\n", err)
		os.Exit(2)
	}

	// Any chaos flag arms a deterministic fault-injecting filesystem under
	// the durability layer. This exists for disk-fault drills and the
	// chaos test suite: the daemon's degraded-mode handling can be
	// rehearsed against a disk that fails on schedule.
	var fsys durable.FS
	if *chaosWriteErr > 0 || *chaosSyncErr > 0 || *chaosOpErr > 0 || *chaosENOSPC > 0 {
		ffs := durable.NewFaultFS(nil, durable.FaultConfig{
			Seed:             *chaosSeed,
			WriteErrRate:     *chaosWriteErr,
			SyncErrRate:      *chaosSyncErr,
			OpErrRate:        *chaosOpErr,
			ENOSPCAfterBytes: *chaosENOSPC,
		})
		fsys = ffs
		fmt.Fprintf(os.Stderr,
			"apusimd: CHAOS: injecting disk faults (seed=%d write=%g sync=%g op=%g enospc=%d heal-after=%s)\n",
			*chaosSeed, *chaosWriteErr, *chaosSyncErr, *chaosOpErr, *chaosENOSPC, *chaosHealAfter)
		if *chaosHealAfter > 0 {
			time.AfterFunc(*chaosHealAfter, func() {
				ffs.Heal()
				fmt.Fprintln(os.Stderr, "apusimd: CHAOS: fault injection healed")
			})
		}
	}

	srv, err := service.New(service.Config{
		Registry:          apusim.Experiments(),
		FaultPlanRun:      apusim.ExperimentFaultPlan,
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheBytes:        *cacheBytes,
		JobTimeout:        *jobTimeout,
		DataDir:           *dataDir,
		FS:                fsys,
		RequireDurability: *requireDurability,
		DurabilityProbe:   *durabilityProbe,
		Logger:            logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "apusimd: %v\n", err)
		os.Exit(2)
	}
	if *dataDir != "" {
		v := srv.Metrics().Values()
		fmt.Fprintf(os.Stderr,
			"apusimd: recovery: requeued=%.0f interrupted=%.0f from_cache=%.0f completed=%.0f failed=%.0f quarantined=%.0f\n",
			v[`apusimd_recovered_jobs_total{outcome="requeued"}`],
			v[`apusimd_recovered_jobs_total{outcome="interrupted"}`],
			v[`apusimd_recovered_jobs_total{outcome="from_cache"}`],
			v[`apusimd_recovered_jobs_total{outcome="completed"}`],
			v[`apusimd_recovered_jobs_total{outcome="failed"}`],
			v["apusimd_cache_quarantined_total"])
	}

	if *debugAddr != "" {
		dln, err := serveDebug(*debugAddr, logger)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apusimd: debug listener: %v\n", err)
			os.Exit(2)
		}
		defer dln.Close()
		fmt.Fprintf(os.Stderr, "apusimd: pprof on %s\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apusimd: %v\n", err)
		os.Exit(2)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "apusimd: listening on %s\n", ln.Addr())

	// SIGQUIT dumps the live debug snapshot — worker states, queue
	// occupancy, and the flight recorder's recent lifecycle events — to
	// stderr without stopping the daemon, for diagnosing a wedged process.
	quits := make(chan os.Signal, 1)
	signal.Notify(quits, syscall.SIGQUIT)
	go func() {
		for range quits {
			snap := srv.DebugSnapshot()
			out, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				logger.Error("debug snapshot failed", "error", err.Error())
				continue
			}
			fmt.Fprintf(os.Stderr, "apusimd: SIGQUIT debug snapshot:\n%s\n", out)
		}
	}()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "apusimd: %s: draining (in-flight jobs finish; again to force)\n", sig)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "apusimd: serve: %v\n", err)
		os.Exit(1)
	}

	// Graceful drain, bounded by -drain-grace and cut short by a second
	// signal; either forces cancellation of whatever is still running.
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "apusimd: second signal: cancelling in-flight jobs")
		cancel()
	}()
	drainErr := srv.Drain(ctx)
	cancel()

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = hs.Shutdown(shutCtx)
	shutCancel()

	switch {
	case drainErr == nil:
		fmt.Fprintln(os.Stderr, "apusimd: drained cleanly")
	case errors.Is(drainErr, context.Canceled):
		fmt.Fprintln(os.Stderr, "apusimd: drain forced by signal; in-flight jobs cancelled")
	default:
		fmt.Fprintf(os.Stderr, "apusimd: drain grace expired; in-flight jobs cancelled (%v)\n", drainErr)
		os.Exit(1)
	}
}
