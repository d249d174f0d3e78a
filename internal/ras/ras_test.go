package ras

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// testTargets builds a small but complete target set: a 2x2 IOD mesh, an
// 8-channel HBM device, and a 2-XCD partition.
func testTargets() Targets {
	net := fabric.New()
	names := []string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"}
	ids := make([]fabric.NodeID, 4)
	for i, name := range names {
		ids[i] = net.AddNode(name).ID
	}
	net.Connect(ids[0], ids[1], config.LinkUSR, 1.5e12, 5*sim.Nanosecond)
	net.Connect(ids[2], ids[3], config.LinkUSR, 1.5e12, 5*sim.Nanosecond)
	net.Connect(ids[0], ids[2], config.LinkUSR, 1.2e12, 5*sim.Nanosecond)
	net.Connect(ids[1], ids[3], config.LinkUSR, 1.2e12, 5*sim.Nanosecond)

	h := mem.NewHBM("hbm", 2, 4, 2e12, 1<<30, 0)
	spec := config.MI300A().XCD
	rng := sim.NewRNG(1)
	xcds := []*gpu.XCD{gpu.NewXCD(0, spec, rng), gpu.NewXCD(1, spec, rng)}
	part := gpu.NewPartition("p", xcds, nil, gpu.PolicyRoundRobin)
	return Targets{Net: net, HBM: h, XCDs: xcds, GPU: part}
}

func TestParsePlanRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty faults", `{"seed": 1, "faults": []}`},
		{"unknown kind", `{"seed": 1, "faults": [{"kind": "meteor-strike", "at_ns": 1}]}`},
		{"unknown field", `{"seed": 1, "faults": [{"kind": "link-down", "at_ns": 1, "a": "A", "b": "B", "bogus": 3}]}`},
		{"negative time", `{"seed": 1, "faults": [{"kind": "link-down", "at_ns": -5, "a": "A", "b": "B"}]}`},
		{"link without nodes", `{"seed": 1, "faults": [{"kind": "link-down", "at_ns": 1}]}`},
		{"derate out of range", `{"seed": 1, "faults": [{"kind": "link-derate", "at_ns": 1, "a": "A", "b": "B", "derate": 1.5}]}`},
		{"ecc rate out of range", `{"seed": 1, "faults": [{"kind": "ecc-storm", "at_ns": 1, "rate": 2}]}`},
		{"cu-loss without count", `{"seed": 1, "faults": [{"kind": "cu-loss", "at_ns": 1, "xcd": 0}]}`},
		{"not json", `{{{`},
	}
	for _, c := range cases {
		if _, err := ParsePlan([]byte(c.json)); err == nil {
			t.Errorf("%s: ParsePlan accepted %s", c.name, c.json)
		}
	}
	good := `{"seed": 7, "faults": [
		{"kind": "link-down", "at_ns": 1000, "a": "IOD-A", "b": "IOD-B"},
		{"kind": "hbm-channel-retire", "at_ns": 2000, "count": 2},
		{"kind": "ecc-storm", "at_ns": 3000, "rate": 0.01, "penalty_ns": 200},
		{"kind": "cu-loss", "at_ns": 4000, "xcd": 1, "count": 2},
		{"kind": "xcd-loss", "at_ns": 5000, "xcd": 1}
	]}`
	p, err := ParsePlan([]byte(good))
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if p.Seed != 7 || len(p.Faults) != 5 {
		t.Errorf("parsed plan = seed %d, %d faults", p.Seed, len(p.Faults))
	}
}

func TestArmRejectsUnknownTargets(t *testing.T) {
	tg := testTargets()
	cases := []struct {
		name string
		plan Plan
		tg   Targets
	}{
		{"unknown node", Plan{Faults: []Fault{{Kind: FaultLinkDown, A: "IOD-A", B: "IOD-Z"}}}, tg},
		{"no fabric", Plan{Faults: []Fault{{Kind: FaultLinkDown, A: "A", B: "B"}}}, Targets{}},
		{"no hbm", Plan{Faults: []Fault{{Kind: FaultECCStorm, Rate: 0.1}}}, Targets{}},
		{"xcd out of range", Plan{Faults: []Fault{{Kind: FaultCULoss, XCD: 9, Count: 1}}}, tg},
		{"partition position out of range", Plan{Faults: []Fault{{Kind: FaultXCDLoss, XCD: 9}}}, tg},
		{"channel out of range", Plan{Faults: []Fault{{Kind: FaultChannelRetire, Channel: 99}}}, tg},
	}
	for _, c := range cases {
		eng := sim.NewEngine()
		if _, err := NewInjector(&c.plan).Arm(eng, c.tg); err == nil {
			t.Errorf("%s: Arm accepted the plan", c.name)
		}
	}
}

func TestFaultsFireOnlyWhenEngineAdvances(t *testing.T) {
	tg := testTargets()
	plan := &Plan{Seed: 3, Faults: []Fault{
		{Kind: FaultLinkDown, AtNS: 1000, A: "IOD-A", B: "IOD-B"},
		{Kind: FaultXCDLoss, AtNS: 2000, XCD: 1},
	}}
	inj := NewInjector(plan)
	eng := sim.NewEngine()
	n, err := inj.Arm(eng, tg)
	if err != nil || n != 2 {
		t.Fatalf("Arm = %d, %v", n, err)
	}
	if len(inj.Applied()) != 0 {
		t.Fatal("faults applied before the engine reached them")
	}
	a := tg.Net.NodeByName("IOD-A").ID
	b := tg.Net.NodeByName("IOD-B").ID
	if h, _ := tg.Net.Hops(a, b); h != 1 {
		t.Fatalf("healthy hops = %d", h)
	}

	eng.Run(1500 * sim.Nanosecond) // past the link fault, before xcd-loss
	if got := len(inj.Applied()); got != 1 {
		t.Fatalf("after 1.5µs, %d faults applied, want 1", got)
	}
	if h, _ := tg.Net.Hops(a, b); h != 3 {
		t.Errorf("post-fault hops = %d, want 3 (rerouted)", h)
	}
	if tg.GPU.OnlineXCDs() != 2 {
		t.Error("xcd-loss fired early")
	}

	eng.RunAll()
	if got := len(inj.Applied()); got != 2 {
		t.Fatalf("after drain, %d faults applied, want 2", got)
	}
	if tg.GPU.OnlineXCDs() != 1 {
		t.Errorf("OnlineXCDs = %d, want 1", tg.GPU.OnlineXCDs())
	}
	sums := inj.Summaries()
	if len(sums) != 2 || !strings.Contains(sums[0], "link-down") || !strings.Contains(sums[1], "xcd-loss") {
		t.Errorf("summaries = %v", sums)
	}
	if errs := inj.Errs(); len(errs) != 0 {
		t.Errorf("apply errors = %v", errs)
	}
}

// The core determinism guarantee: arming the same plan against identically
// constructed targets makes identical random choices.
func TestInjectorDeterministic(t *testing.T) {
	run := func() ([]string, []int, []int) {
		tg := testTargets()
		plan := &Plan{Seed: 42, Faults: []Fault{
			{Kind: FaultChannelRetire, AtNS: 100, Count: 3},
			{Kind: FaultCULoss, AtNS: 200, XCD: 0, Count: 4},
			{Kind: FaultECCStorm, AtNS: 300, Rate: 0.02, PenaltyNS: 150},
		}}
		inj := NewInjector(plan)
		eng := sim.NewEngine()
		if _, err := inj.Arm(eng, tg); err != nil {
			t.Fatal(err)
		}
		eng.RunAll()
		var retired []int
		for i, c := range tg.HBM.Channels() {
			if c.Retired() {
				retired = append(retired, i)
			}
		}
		// Drive identical traffic through the ECC model.
		for addr := int64(0); addr < 1<<22; addr += 4096 {
			tg.HBM.Access(0, addr, 4096, false)
		}
		retired = append(retired, int(tg.HBM.ECCEvents()))
		return inj.Summaries(), retired, tg.XCDs[0].DisabledCUs()
	}
	s1, r1, d1 := run()
	s2, r2, d2 := run()
	if strings.Join(s1, ";") != strings.Join(s2, ";") {
		t.Errorf("summaries diverged: %v vs %v", s1, s2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("retired sets diverged: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("retired sets diverged: %v vs %v", r1, r2)
		}
	}
	if len(d1) != len(d2) {
		t.Fatalf("disabled-CU sets diverged: %v vs %v", d1, d2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("disabled-CU sets diverged: %v vs %v", d1, d2)
		}
	}
	if r1[len(r1)-1] == 0 {
		t.Error("ECC storm produced no events under traffic")
	}
}

func TestApplyErrorSurfaced(t *testing.T) {
	// Retiring more channels than can stay live is an apply-time error,
	// recorded rather than panicking the run.
	tg := testTargets()
	plan := &Plan{Seed: 1, Faults: []Fault{
		{Kind: FaultChannelRetire, AtNS: 10, Count: 8}, // all 8 channels
	}}
	inj := NewInjector(plan)
	eng := sim.NewEngine()
	if _, err := inj.Arm(eng, tg); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(inj.Errs()) == 0 {
		t.Error("retiring every channel should surface an apply error")
	}
	if tg.HBM.LiveChannels() < 1 {
		t.Error("device lost its last live channel")
	}
}

func TestPartitionedTransferAfterPlan(t *testing.T) {
	tg := testTargets()
	plan := &Plan{Seed: 1, Faults: []Fault{
		{Kind: FaultLinkDown, AtNS: 10, A: "IOD-A", B: "IOD-B"},
		{Kind: FaultLinkDown, AtNS: 10, A: "IOD-B", B: "IOD-D"},
	}}
	inj := NewInjector(plan)
	eng := sim.NewEngine()
	if _, err := inj.Arm(eng, tg); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	a := tg.Net.NodeByName("IOD-A").ID
	b := tg.Net.NodeByName("IOD-B").ID
	if _, err := tg.Net.Transfer(eng.Now(), a, b, 4096); !errors.Is(err, fabric.ErrPartitioned) {
		t.Errorf("transfer to isolated IOD = %v, want ErrPartitioned", err)
	}
}
