package main

import (
	"fmt"
	"time"

	apusim "repro"
	"repro/internal/runner"
)

// timingIDs is every registered experiment, in registration order, except
// fig14 and managed. Those two spend their host time in functional memory
// (mem.Space), and on a shared VM the time of one identical pass of them
// swings by up to 2x over tens of seconds, too much for a run to measure
// steadily; the traced run's runner, progmodel and mem probes cover them.
func timingIDs() []string {
	var ids []string
	for _, id := range apusim.Experiments().IDs() {
		if id != "fig14" && id != "managed" {
			ids = append(ids, id)
		}
	}
	return ids
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// runExperiment runs one experiment on its own RunSuite call, as an
// apusimd job or `cmd/repro -exp` does, and checks its output against its
// digest.
func runExperiment(reg *runner.Registry, id string, dig *digests, tr *tracer, root int) error {
	sid := tr.begin("runner.RunSuite", root)
	res, err := reg.RunSuite(runner.Options{Parallel: 1, IDs: []string{id}})
	tr.end(sid)
	if err != nil {
		return err
	}
	if len(res.Results) != 1 {
		return fmt.Errorf("%s: suite returned %d results", id, len(res.Results))
	}
	return dig.checkResult(res.Results[0])
}

// runSuite drives a suite workload over ids: one client, one op = one
// experiment, cycling through ids in order. A run completes thousands of
// ops, so op_p99_ms has tens of samples beyond it and falls among the
// slowest experiments' runs; with one op per pass a run would hold a few
// dozen ops and op_p99_ms would be its slowest pass.
//
// Set-up is what every cmd/repro invocation pays before it has a result:
// building the registry plus the first (cold) pass over ids in one
// RunSuite call, each output checked like an op's.
func runSuite(e *env, ids []string) (*outcome, error) {
	out := newOutcome()
	reps := setupReps
	if e.tr != nil {
		reps = 1 // a traced run reports no set-up time
	}
	var setups []float64
	var reg *runner.Registry
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		reg = apusim.Experiments()
		res, err := reg.RunSuite(runner.Options{Parallel: 1, IDs: ids})
		if err != nil {
			return nil, err
		}
		for _, r := range res.Results {
			out.count(e.dig.checkResult(r), e.log, "set-up pass")
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	next := 0 // one client, so the loop's ops never run concurrently
	l := closedLoop("op", 1, e.seconds, e.tr, e.log, func(tr *tracer, root int) error {
		id := ids[next%len(ids)]
		next++
		return runExperiment(reg, id, e.dig, tr, root)
	})
	if e.tr == nil {
		out.endToEnd(setups, l)
		return out, nil
	}
	out.add(l)
	out.overhead(l)
	s, err := newFixture(e)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	return out, layerMetrics(e, out, s, []serveLoop{
		{"companion-hit", hitLoop, companionSeconds},
		{"companion-miss", missLoop, companionSeconds},
	})
}
