package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file renders telemetry dumps in the Prometheus text exposition
// format (version 0.0.4), so a run's final state can be scraped into the
// same dashboards that watch real fleets. Sampled series become gauges
// reporting their final sample; engine handler-class counts become
// cumulative counters. Everything emitted derives from simulated time, so
// the output is deterministic for a fixed seed and fault plan.

// promNamePrefix namespaces every exported metric.
const promNamePrefix = "apusim_"

// promName sanitizes a probe name into a legal Prometheus metric name
// under the apusim_ namespace.
func promName(name string) string { return promNamePrefix + promSanitize(name) }

// promSanitize makes a string a legal Prometheus metric name (see
// appendSanitized).
func promSanitize(name string) string { return string(appendSanitized(nil, name)) }

// appendSanitized appends name to dst as a legal Prometheus metric name:
// every byte outside [a-zA-Z0-9_:] becomes '_', and a leading digit gets a
// '_' prefix.
func appendSanitized(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			dst = append(dst, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				dst = append(dst, '_')
			}
			dst = append(dst, c)
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}

// promEscaper escapes label values. Built once: a Replacer's lookup table
// is several KiB, too much to rebuild for every label rendered.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promEscape escapes a label value per the exposition format. A value
// with nothing to escape is returned as is, without allocating.
func promEscape(v string) string { return promEscaper.Replace(v) }

// appendPromFloat appends a sample value.
func appendPromFloat(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }

// PromRun pairs a dump with the run label its samples carry; an empty ID
// emits unlabeled samples (single-run exports).
type PromRun struct {
	ID   string
	Dump *Dump
}

// WritePromRuns writes one or more runs' dumps in Prometheus text
// exposition format. Each sampled series contributes a gauge holding its
// final sample; engine handler classes contribute one counter series per
// class. Multi-run exports distinguish runs with a run="<id>" label. The
// samples are registered in a transient Set, so a metric family's
// HELP/TYPE header appears once however many runs carry it.
func WritePromRuns(w io.Writer, runs []PromRun) error {
	set := NewSet()
	for _, run := range runs {
		d := run.Dump
		if d == nil {
			continue
		}
		var runLabel []Label
		if run.ID != "" {
			runLabel = []Label{{"run", run.ID}}
		}
		set.Gauge(promNamePrefix+"telemetry_samples",
			"Number of telemetry samples the run recorded.",
			runLabel...).Set(float64(len(d.TimesNS)))
		for _, s := range d.Series {
			if len(s.Values) == 0 {
				continue
			}
			set.Gauge(promName(s.Name),
				fmt.Sprintf("Final sampled value of probe %s (kind %s).", s.Name, s.Kind),
				runLabel...).Set(s.Values[len(s.Values)-1])
		}
		if d.Engine != nil {
			for _, c := range d.Engine.Classes {
				set.Counter(promNamePrefix+"events_fired_total",
					"Cumulative simulation events fired, by handler class.",
					append(runLabel, Label{"class", c.Class})...).Add(float64(c.Fired))
			}
			set.Gauge(promNamePrefix+"event_queue_high_water",
				"Deepest the run's event queue ever was.",
				runLabel...).Set(float64(d.Engine.QueueHighWater))
		}
	}
	return set.WritePromText(w)
}
