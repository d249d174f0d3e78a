package apusim

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// This file assembles the experiment registry. Every table, figure, and
// ablation in the evaluation is registered exactly once, by the file
// that defines it; cmd/repro, apusimd and the benchmark suite all
// enumerate this registry instead of keeping private experiment tables.

var (
	registryOnce sync.Once
	registry     *runner.Registry
)

// Experiments returns the shared experiment registry, built on first
// use. Callers that want to add ad-hoc entries (fault injection, demo
// experiments) should Clone() it rather than register here.
func Experiments() *runner.Registry {
	registryOnce.Do(func() {
		registry = runner.NewRegistry()
		registerCoreExperiments(registry)  // experiments.go: Tables 1-x, Figs. 7-21
		registerExtraExperiments(registry) // experiments_extra.go: design ablations
		registerQoSExperiments(registry)   // experiments_qos.go: scaling/QoS/efficiency
		registerRASExperiments(registry)   // experiments_ras.go: fault injection
		registerSpanExperiments(registry)  // experiments_spans.go: causal span tracing
	})
	return registry
}

// tableOutput is the output of an experiment that returns its result and
// its table: the table's text, or the experiment's error.
func tableOutput[R any](_ R, t *metrics.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}
