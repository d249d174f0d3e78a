package runner

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// ManifestSchema identifies the manifest JSON layout; bump on
// incompatible changes.
const ManifestSchema = "apusim-run-manifest/v1"

// Manifest is the structured record of one suite run, written as JSON by
// cmd/repro -manifest.
type Manifest struct {
	Schema string       `json:"schema"`
	Suite  SuiteSummary `json:"suite"`
	// Experiments are per-run records in registration order.
	Experiments []ExperimentRecord `json:"experiments"`
}

// SuiteSummary aggregates the whole run.
type SuiteSummary struct {
	Total int `json:"total"`
	OK    int `json:"ok"`
	// Degraded counts runs that completed under injected faults — they do
	// not count toward Failed.
	Degraded int `json:"degraded,omitempty"`
	// Violated counts runs aborted by the watchdog or carrying audit
	// violations (whether or not Strict failed them).
	Violated  int     `json:"violated,omitempty"`
	Failed    int     `json:"failed"`
	Parallel  int     `json:"parallel"`
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	// Table is the suite summary rendered as a text table (the table
	// -summary prints, less its heap column), embedded so a manifest is
	// self-describing.
	Table string `json:"table"`
}

// ExperimentRecord is one experiment's entry in the manifest.
type ExperimentRecord struct {
	ID            string   `json:"id"`
	Desc          string   `json:"desc"`
	Status        Status   `json:"status"`
	Error         string   `json:"error,omitempty"`
	WallMS        float64  `json:"wall_ms"`
	OutputBytes   int      `json:"output_bytes"`
	EventsFired   uint64   `json:"events_fired"`
	EventsPending int      `json:"events_pending"`
	Milestones    []string `json:"milestones,omitempty"`
	// Attempts is how many times the experiment ran (1 unless -retries
	// rescued a failing run).
	Attempts int `json:"attempts,omitempty"`
	// Faults are the injected-fault summaries the run recorded.
	Faults []string `json:"faults,omitempty"`
	// Telemetry is the run's sampled-series summary, present only for
	// experiments that recorded telemetry; omitted otherwise, so v1
	// manifest readers are unaffected.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
	// Spans is the run's critical-path latency attribution, present only
	// for experiments that recorded spans; omitted otherwise.
	Spans *spans.Attribution `json:"spans,omitempty"`
	// Audit is the run's invariant-audit report, present only when the
	// suite ran with auditing armed; omitted otherwise, so v1 manifest
	// readers are unaffected.
	Audit *audit.Report `json:"audit,omitempty"`
}

// BuildManifest converts a suite result into its manifest form.
func BuildManifest(s *SuiteResult) *Manifest {
	m := &Manifest{
		Schema: ManifestSchema,
		Suite: SuiteSummary{
			Total:    len(s.Results),
			Degraded: len(s.Degraded()),
			Violated: len(s.Violated()),
			Failed:   len(s.Failed()),
			Parallel: s.Parallel,
			WallMS:   s.Wall.Seconds() * 1e3,
			Table:    s.summaryTable(false).String(),
		},
	}
	m.Suite.OK = m.Suite.Total - m.Suite.Failed - m.Suite.Degraded
	if s.Timeout > 0 {
		m.Suite.TimeoutMS = s.Timeout.Seconds() * 1e3
	}
	for _, r := range s.Results {
		rec := ExperimentRecord{
			ID:            r.ID,
			Desc:          r.Desc,
			Status:        r.Status,
			WallMS:        r.Wall.Seconds() * 1e3,
			OutputBytes:   len(r.Output),
			EventsFired:   r.EventsFired,
			EventsPending: r.EventsPending,
			Milestones:    r.Milestones,
			Attempts:      r.Attempts,
			Faults:        r.Faults,
			Telemetry:     r.Telemetry,
		}
		if r.Spans.Len() > 0 {
			rec.Spans = r.Spans.Attribution()
		}
		rec.Audit = r.Audit
		if r.Err != nil {
			rec.Error = r.Err.Error()
		}
		m.Experiments = append(m.Experiments, rec)
	}
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// TelemetryRunsSchema identifies the telemetry series file (-telemetry)
// layout: one full columnar dump per telemetry-bearing run.
const TelemetryRunsSchema = "apusim-telemetry-runs/v1"

// telemetryRun pairs an experiment ID with its full series dump.
type telemetryRun struct {
	ID     string          `json:"id"`
	Series *telemetry.Dump `json:"telemetry"`
}

// WriteTelemetryRuns writes every telemetry-bearing run's full columnar
// dump as indented JSON, in registration order. The dumps contain only
// simulated-time data, so the output is byte-identical across runs and
// parallelism degrees for a fixed seed and fault plan.
func (s *SuiteResult) WriteTelemetryRuns(w io.Writer) error {
	runs := []telemetryRun{}
	for _, r := range s.Results {
		if r.TelemetryDump != nil {
			runs = append(runs, telemetryRun{ID: r.ID, Series: r.TelemetryDump})
		}
	}
	return writeRuns(w, TelemetryRunsSchema, runs)
}

// SpanRunsSchema identifies the span trace file (-spans) layout: one full
// span dump per span-bearing run.
const SpanRunsSchema = "apusim-spans-runs/v1"

// spanRun pairs an experiment ID with its full span dump.
type spanRun struct {
	ID    string      `json:"id"`
	Spans *spans.Dump `json:"spans"`
}

// WriteSpanRuns renders every span-bearing run's full dump and writes
// them as indented JSON, in registration order. Span dumps contain only
// simulated-time data, so the output is byte-identical across repeated
// runs and parallelism degrees for a fixed seed and fault plan.
func (s *SuiteResult) WriteSpanRuns(w io.Writer) error {
	runs := []spanRun{}
	for _, r := range s.Results {
		if r.Spans != nil {
			runs = append(runs, spanRun{ID: r.ID, Spans: r.Spans.Dump()})
		}
	}
	return writeRuns(w, SpanRunsSchema, runs)
}

// AuditRunsSchema identifies the audit report file (-audit-out) layout:
// one apusim-audit/v1 report per audited run.
const AuditRunsSchema = "apusim-audit-runs/v1"

// auditRun pairs an experiment ID with its audit report.
type auditRun struct {
	ID    string        `json:"id"`
	Audit *audit.Report `json:"audit"`
}

// WriteAuditRuns writes every audited run's report as indented JSON, in
// registration order. Reports contain only simulated-time data, so the
// output is byte-identical across repeated runs and parallelism degrees
// for a fixed seed and fault plan.
func (s *SuiteResult) WriteAuditRuns(w io.Writer) error {
	runs := []auditRun{}
	for _, r := range s.Results {
		if r.Audit != nil {
			runs = append(runs, auditRun{ID: r.ID, Audit: r.Audit})
		}
	}
	return writeRuns(w, AuditRunsSchema, runs)
}

// writeRuns writes one per-run file (-telemetry, -spans, -audit-out): its
// schema and its runs, as indented JSON.
func writeRuns[R any](w io.Writer, schema string, runs []R) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Schema string `json:"schema"`
		Runs   []R    `json:"runs"`
	}{schema, runs})
}

// SummaryTable renders the per-experiment summary as a metrics table,
// with a wall-time distribution footer row. Its "heap KiB" column is each
// run's HeapBytes, or "-" where none was recorded: runs overlapped, or
// the run timed out or was cancelled.
func (s *SuiteResult) SummaryTable() *metrics.Table { return s.summaryTable(true) }

// summaryTable renders the summary table, with the heap column or (for
// the manifest, whose table leaves out what varies beyond wall time)
// without it.
func (s *SuiteResult) summaryTable(heap bool) *metrics.Table {
	headers := []string{"id", "status", "attempts", "wall ms", "fired", "pending", "bytes"}
	if heap {
		headers = append(headers, "heap KiB")
	}
	t := metrics.NewTable(
		fmt.Sprintf("suite summary: %d experiments, %d failed, %d degraded, parallel %d, wall %.0f ms",
			len(s.Results), len(s.Failed()), len(s.Degraded()), s.Parallel, s.Wall.Seconds()*1e3),
		headers...)
	wall := new(metrics.Distribution)
	for _, r := range s.Results {
		row := []any{r.ID, string(r.Status), r.Attempts, r.Wall.Seconds() * 1e3,
			int(r.EventsFired), r.EventsPending, len(r.Output)}
		if heap {
			row = append(row, s.heapKiB(r))
		}
		t.AddRowf(row...)
		wall.Observe(r.Wall.Seconds() * 1e3)
	}
	footer := []any{"(wall)", "-", "-",
		fmt.Sprintf("min %s / mean %s / max %s",
			metrics.FormatFloat(wall.Min()),
			metrics.FormatFloat(wall.Mean()),
			metrics.FormatFloat(wall.Max())),
		"-", "-", "-"}
	if heap {
		footer = append(footer, "-")
	}
	t.AddRowf(footer...)
	return t
}

// heapKiB renders r's heap bytes for the summary table: "-" when none
// was recorded.
func (s *SuiteResult) heapKiB(r Result) any {
	if s.Parallel != 1 || r.Status == StatusTimeout || r.Status == StatusCancelled {
		return "-"
	}
	return float64(r.HeapBytes) / 1024
}
