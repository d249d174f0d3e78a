package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPlanIsDeterministic(t *testing.T) {
	a, b := newPlan(7), newPlan(7)
	if len(a.stored) != storedResults || len(a.hot) != len(cheapIDs)*hotPerExperiment {
		t.Fatalf("plan has %d stored and %d hot specs", len(a.stored), len(a.hot))
	}
	for i := range a.stored {
		if !bytes.Equal(a.stored[i].body, b.stored[i].body) {
			t.Fatalf("stored spec %d differs: %s vs %s", i, a.stored[i].body, b.stored[i].body)
		}
	}
	for i := 0; i < 1000; i++ {
		if ha, hb := a.nextHit(), b.nextHit(); !bytes.Equal(ha.body, hb.body) {
			t.Fatalf("hit draw %d differs: %s vs %s", i, ha.body, hb.body)
		}
		if ma, mb := a.nextMiss(), b.nextMiss(); !bytes.Equal(ma.body, mb.body) {
			t.Fatalf("miss draw %d differs: %s vs %s", i, ma.body, mb.body)
		}
	}
	if c := newPlan(8); bytes.Equal(c.stored[0].body, a.stored[0].body) {
		t.Fatalf("seeds 7 and 8 generated the same first spec %s", c.stored[0].body)
	}
}

func TestMissesNeverHitStoredResults(t *testing.T) {
	p := newPlan(3)
	stored := make(map[uint64]bool)
	for _, sp := range p.stored {
		stored[sp.seed] = true
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		sp := p.nextMiss()
		if stored[sp.seed] || seen[sp.seed] {
			t.Fatalf("miss %d reuses seed %d", i, sp.seed)
		}
		seen[sp.seed] = true
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke tests check
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smoke runs the benchmark as its command line does and returns its result.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "5", "--seconds", "0.3",
		"--trace", trace, "--workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d ops failed: %s", res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := smoke(t, w.Name, "0")
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s missing or not positive: %+v", m.Name, v)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every probe")
	}
	b := readBenchmark(t)
	res := smoke(t, "serve-hit", "1")
	if len(res.Metrics) != len(b.PerLayer) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if r := res.Metrics["service.cache_hit_ratio"].Value; r != 1 {
		t.Errorf("serve-hit cache hit ratio %g, want 1", r)
	}
}

func testEnv(t *testing.T, dig *digests) *env {
	return &env{
		seconds: 200 * time.Millisecond,
		dir:     t.TempDir(),
		dig:     dig,
		plan:    newPlan(9),
		log:     &bytes.Buffer{},
	}
}

func TestWrongDigestFailsOps(t *testing.T) {
	good, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	bad := &digests{Outputs: map[string]string{}, Manifests: map[string]string{}}
	for k, v := range good.Outputs {
		bad.Outputs[k] = v
	}
	for k, v := range good.Manifests {
		bad.Manifests[k] = v
	}
	bad.Outputs["fig12a"] = strings.Repeat("0", 64)
	bad.Manifests["fig12a"] = strings.Repeat("0", 64)

	out, err := runSuite(testEnv(t, bad), []string{"table1", "fig12a"})
	if err != nil {
		t.Fatal(err)
	}
	// Ops alternate between the two experiments, so every fig12a op fails
	// and no table1 op: half of them, give or take the last one.
	if d := out.attempted - 2*out.failed; out.attempted < 4 || d < 0 || d > 1 {
		t.Errorf("suite with one wrong output digest: %d of %d ops failed, want half", out.failed, out.attempted)
	}

	out, err = runServeHit(testEnv(t, bad))
	if err != nil {
		t.Fatal(err)
	}
	// One cheap experiment in six has a wrong manifest digest, so about a
	// sixth of the ops must fail, and no other.
	if out.failed == 0 || out.failed == out.attempted {
		t.Errorf("serve-hit with one wrong manifest digest: %d of %d ops failed", out.failed, out.attempted)
	}
}
