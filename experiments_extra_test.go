package apusim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestExperimentShimCrossovers(t *testing.T) {
	rows, _, err := ExperimentShim(nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]int{}
	for _, r := range rows {
		byKey[r.Platform+"/"+r.Call] = r.Crossover
	}
	// The APU's zero-copy access drops the GPU-profitable problem size
	// well below the discrete platform's.
	if byKey["MI300A/dgemm"] >= byKey["MI250X/dgemm"] {
		t.Errorf("APU dgemm crossover %d should be below discrete %d",
			byKey["MI300A/dgemm"], byKey["MI250X/dgemm"])
	}
	if byKey["MI300A/daxpy"] >= byKey["MI250X/daxpy"] {
		t.Errorf("APU daxpy crossover %d should be below discrete %d",
			byKey["MI300A/daxpy"], byKey["MI250X/daxpy"])
	}
}

func TestExperimentManagedMemoryOrdering(t *testing.T) {
	r, _, err := ExperimentManagedMemory(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []*ProgramResult{r.APU, r.Explicit, r.Managed} {
		if !pr.Verified {
			t.Errorf("%s did not verify", pr.Program)
		}
	}
	// APU < explicit copies < page migration.
	if !(r.APU.Total < r.Explicit.Total && r.Explicit.Total < r.Managed.Total) {
		t.Errorf("ordering wrong: apu=%v explicit=%v managed=%v",
			r.APU.Total, r.Explicit.Total, r.Managed.Total)
	}
	if r.Stats.Faults == 0 {
		t.Error("managed run recorded no faults")
	}
}

func TestExperimentPolicyAblationTradeoff(t *testing.T) {
	r, _, err := ExperimentPolicyAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.BlockHitRate <= r.RRHitRate {
		t.Errorf("block hit rate %.2f should exceed round-robin %.2f",
			r.BlockHitRate, r.RRHitRate)
	}
}

func TestExperimentPrefetchAblation(t *testing.T) {
	r, err := ExperimentPrefetchAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRateOn <= r.HitRateOff {
		t.Errorf("prefetch-on hit rate %.2f should exceed off %.2f", r.HitRateOn, r.HitRateOff)
	}
	if r.HitRateOn < 0.5 {
		t.Errorf("sequential stream with prefetch = %.2f hit rate, want high", r.HitRateOn)
	}
}

func TestExperimentPowerShiftAblation(t *testing.T) {
	r, _ := ExperimentPowerShiftAblation()
	if r.DynamicXCDWatts <= r.StaticXCDWatts {
		t.Error("dynamic governor should grant XCDs more power in a compute phase")
	}
	if r.DynamicScale < r.StaticScale {
		t.Error("dynamic governor should throttle no harder than static")
	}
}

func TestExperimentBondInterface(t *testing.T) {
	r, _, err := ExperimentBondInterface()
	if err != nil {
		t.Fatal(err)
	}
	if r.MI300DroopMV >= r.VCacheDroopMV {
		t.Error("MI300 RDL landing should droop less (Fig. 11)")
	}
	if r.MI300MaxW <= r.VCacheMaxW {
		t.Error("MI300 interface should deliver more power")
	}
}

func TestExperimentCoherenceScopes(t *testing.T) {
	r, _, err := ExperimentCoherenceScopes()
	if err != nil {
		t.Fatal(err)
	}
	if r.SW1GB >= r.HW1GB {
		t.Error("software coherence should win the 1 GB handoff (§IV.D)")
	}
	if r.Crossover <= 0 || r.Crossover >= 1<<30 {
		t.Errorf("crossover = %d, want interior", r.Crossover)
	}
	if r.ProbeTax < 0.25 {
		t.Errorf("probe tax = %.2f, want substantial", r.ProbeTax)
	}
}

func TestWriteFig14Trace(t *testing.T) {
	var buf bytes.Buffer
	res, err := WriteTrace(&buf, TraceSpec{Fig14N: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fig14.APU.Verified {
		t.Error("traced programs did not verify")
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 3 process names + at least 4+6+4 step spans.
	if len(decoded) < 14 {
		t.Errorf("trace has %d records, want >= 14", len(decoded))
	}
	if !strings.Contains(buf.String(), "hipMemcpy H2D") {
		t.Error("trace missing discrete copy span")
	}
}

func TestWriteDispatchTrace(t *testing.T) {
	var buf bytes.Buffer
	res, err := WriteTrace(&buf, TraceSpec{Dispatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fig13.XCDs != 6 {
		t.Errorf("XCDs = %d", res.Fig13.XCDs)
	}
	if !strings.Contains(buf.String(), "XCD5") {
		t.Error("trace missing XCD5 track")
	}
}

func TestExperimentTenantIsolation(t *testing.T) {
	rs, _, err := ExperimentTenantIsolation(nil)
	if err != nil {
		t.Fatal(err)
	}
	nps1, nps4 := rs[0], rs[1]
	// NPS1: higher peak alone (full interleave)...
	if nps1.AloneBW <= nps4.AloneBW {
		t.Errorf("NPS1 alone (%.0f GB/s) should exceed NPS4 alone (%.0f GB/s)",
			nps1.AloneBW/1e9, nps4.AloneBW/1e9)
	}
	// ...but substantial degradation with a neighbor...
	if nps1.DegradationPct < 20 {
		t.Errorf("NPS1 degradation = %.0f%%, want substantial", nps1.DegradationPct)
	}
	// ...while NPS4 isolates.
	if nps4.DegradationPct > 5 {
		t.Errorf("NPS4 degradation = %.0f%%, want ~0 (dedicated channels)", nps4.DegradationPct)
	}
}

func TestExperimentEfficiency(t *testing.T) {
	rows, _, err := ExperimentEfficiency(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// MI300A's TDP is slightly below MI250X's, so perf/W uplift is
		// at least the speedup.
		if r.EfficiencyX < r.Speedup {
			t.Errorf("%s: perf/W %.2f below speedup %.2f", r.Workload, r.EfficiencyX, r.Speedup)
		}
		if r.EfficiencyX <= 1 {
			t.Errorf("%s: no efficiency gain", r.Workload)
		}
	}
}

func TestExperimentEnergyPerPhase(t *testing.T) {
	tbl, err := ExperimentEnergyPerPhase()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 7 { // 6 domains + total
		t.Errorf("rows = %d", tbl.NumRows())
	}
}

func TestExperimentStrongScale(t *testing.T) {
	pts, _, err := ExperimentStrongScale(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[3].Speedup <= pts[0].Speedup {
		t.Error("no scaling across the node")
	}
	if pts[3].Efficiency <= 0.5 {
		t.Errorf("4-socket efficiency = %.2f, want > 0.5 for compute-heavy work", pts[3].Efficiency)
	}
}
