package gpu

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/hsa"
	"repro/internal/mem"
	"repro/internal/sim"
)

func testXCDs(n int) []*XCD {
	spec := config.MI300A().XCD
	rng := sim.NewRNG(1)
	xs := make([]*XCD, n)
	for i := range xs {
		xs[i] = NewXCD(i, spec, rng)
	}
	return xs
}

func TestYieldHarvesting(t *testing.T) {
	x := testXCDs(1)[0]
	if got := x.EnabledCUs(); got != 38 {
		t.Errorf("enabled CUs = %d, want 38 (§IV.B)", got)
	}
	if got := len(x.CUs()); got != 40 {
		t.Errorf("physical CUs = %d, want 40", got)
	}
	var disabled int
	for _, c := range x.CUs() {
		if c.Disabled {
			disabled++
		}
	}
	if disabled != 2 {
		t.Errorf("disabled CUs = %d, want 2", disabled)
	}
}

// refAssign is the list-building assignment the ranges replaced, kept as
// the reference: the flat workgroup IDs [0,n) each member die runs, by
// position, grown one ID at a time; offline dies get none.
func refAssign(p *Partition, n int, live []int) [][]int {
	out := make([][]int, len(p.xcds))
	switch p.Policy {
	case PolicyBlock:
		per := (n + len(live) - 1) / len(live)
		for li, i := range live {
			lo := li * per
			hi := lo + per
			if hi > n {
				hi = n
			}
			for wg := lo; wg < hi; wg++ {
				out[i] = append(out[i], wg)
			}
		}
	default: // PolicyRoundRobin
		for wg := 0; wg < n; wg++ {
			i := live[wg%len(live)]
			out[i] = append(out[i], wg)
		}
	}
	return out
}

// assignLists expands assign's ranges into refAssign's form.
func assignLists(p *Partition, n int) [][]int {
	live := p.liveXCDs()
	out := make([][]int, len(p.xcds))
	for li, i := range live {
		r := p.assign(n, li, len(live))
		for j, wg := 0, r.first; j < r.count; j, wg = j+1, wg+r.stride {
			out[i] = append(out[i], wg)
		}
	}
	return out
}

// TestAssignMatchesReference compares the ranges with the reference
// lists on random workgroup counts over random sets of live dies, under
// both policies.
func TestAssignMatchesReference(t *testing.T) {
	xs := testXCDs(6)
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		p := NewPartition("p", xs, nil, Policy(iter%2))
		for i := range xs {
			p.offline[i] = rng.Intn(3) == 0
		}
		p.offline[rng.Intn(len(xs))] = false
		n := rng.Intn(40)
		if iter%10 == 0 {
			n = rng.Intn(5000)
		}
		got, want := assignLists(p, n), refAssign(p, n, p.liveXCDs())
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s, n=%d, offline %v: XCD %d runs %v, reference %v", p.Policy, n, p.offline, i, got[i], want[i])
			}
		}
	}
}

func TestPartitionAssignRoundRobinVsBlock(t *testing.T) {
	xs := testXCDs(4)
	env := &ExecEnv{}
	rr := NewPartition("rr", xs, env, PolicyRoundRobin)
	blk := NewPartition("blk", xs, env, PolicyBlock)

	a := assignLists(rr, 10)
	if len(a[0]) != 3 || a[0][1] != 4 {
		t.Errorf("round-robin assignment wrong: %v", a)
	}
	b := assignLists(blk, 10)
	if len(b[0]) != 3 || b[0][2] != 2 {
		t.Errorf("block assignment wrong: %v", b)
	}
	// Both cover all workgroups exactly once.
	for name, asn := range map[string][][]int{"rr": a, "blk": b} {
		seen := make(map[int]bool)
		for _, wgs := range asn {
			for _, wg := range wgs {
				if seen[wg] {
					t.Errorf("%s: workgroup %d assigned twice", name, wg)
				}
				seen[wg] = true
			}
		}
		if len(seen) != 10 {
			t.Errorf("%s: covered %d of 10 workgroups", name, len(seen))
		}
	}
}

// Property: any workgroup count is fully and uniquely covered by both
// policies over any partition width.
func TestAssignCoverageProperty(t *testing.T) {
	xs := testXCDs(6)
	f := func(n uint16, block bool) bool {
		pol := PolicyRoundRobin
		if block {
			pol = PolicyBlock
		}
		p := NewPartition("p", xs, nil, pol)
		nWG := int(n)%2000 + 1
		seen := make(map[int]bool)
		for _, wgs := range assignLists(p, nWG) {
			for _, wg := range wgs {
				if wg < 0 || wg >= nWG || seen[wg] {
					return false
				}
				seen[wg] = true
			}
		}
		return len(seen) == nWG
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDispatchExecutesFunctionally(t *testing.T) {
	// A real vector-add: y[i] += x[i] across 6 XCDs with one unified
	// memory, checking the multi-XCD decomposition computes every element
	// exactly once.
	space := mem.NewSpace("hbm", 1<<30)
	const n = 4096
	xAddr, _ := space.Alloc(n*8, 0)
	yAddr, _ := space.Alloc(n*8, 0)
	for i := int64(0); i < n; i++ {
		space.WriteFloat64(xAddr+i*8, float64(i))
		space.WriteFloat64(yAddr+i*8, 1000)
	}
	env := &ExecEnv{Mem: space}
	p := NewPartition("spx", testXCDs(6), env, PolicyRoundRobin)
	k := &KernelSpec{
		Name:  "vadd",
		Class: config.Vector, Dtype: config.FP64,
		FlopsPerItem: 1, BytesReadPerItem: 16, BytesWrittenPerItem: 8,
		Body: func(env *ExecEnv, xcd, wgID, wgSize int, kernarg int64) {
			for l := 0; l < wgSize; l++ {
				i := int64(wgID*wgSize + l)
				if i >= n {
					return
				}
				x := env.Mem.ReadFloat64(xAddr + i*8)
				y := env.Mem.ReadFloat64(yAddr + i*8)
				env.Mem.WriteFloat64(yAddr+i*8, x+y)
			}
		},
	}
	done, err := p.Dispatch(0, k, n, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("dispatch took no time")
	}
	for i := int64(0); i < n; i++ {
		want := float64(i) + 1000
		if got := space.ReadFloat64(yAddr + i*8); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
	// All 6 XCDs participated (round-robin, 16 workgroups).
	var participating int
	for _, x := range p.XCDs() {
		if x.Stats().Workgroups > 0 {
			participating++
		}
	}
	if participating != 6 {
		t.Errorf("%d XCDs participated, want 6", participating)
	}
}

func TestMultiXCDFasterThanSingle(t *testing.T) {
	// The same compute-bound kernel across 6 XCDs should be ~6x faster
	// than on a 1-XCD partition.
	k := &KernelSpec{
		Name:  "flops",
		Class: config.Matrix, Dtype: config.FP16,
		FlopsPerItem: 1e6,
	}
	one := NewPartition("cpx", testXCDs(1), nil, PolicyRoundRobin)
	six := NewPartition("spx", testXCDs(6), nil, PolicyRoundRobin)
	const items = 228 * 4 * 256
	d1, err := one.Dispatch(0, k, items, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	d6, err := six.Dispatch(0, k, items, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(d1) / float64(d6)
	if speedup < 4.5 || speedup > 6.5 {
		t.Errorf("6-XCD speedup = %.2f, want ~6", speedup)
	}
}

func TestCompletionSignalDecremented(t *testing.T) {
	p := NewPartition("p", testXCDs(2), nil, PolicyRoundRobin)
	q := hsa.NewQueue("q", 4)
	sig := hsa.NewSignal("done", 1)
	k := &KernelSpec{Name: "k", FlopsPerItem: 100, Class: config.Vector, Dtype: config.FP32}
	q.Enqueue(hsa.Packet{
		Type: hsa.PacketKernelDispatch, KernelName: "k",
		Grid: hsa.Dim3{1024, 1, 1}, Workgroup: hsa.Dim3{256, 1, 1},
		KernelObject: k, Completion: sig,
	})
	done, err := p.Process(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if v := sig.Value(); v != 0 {
		t.Errorf("signal = %d, want 0", v)
	}
	if st := sig.SetTime(); st != done {
		t.Errorf("signal time %v != completion %v", st, done)
	}
	if q.Depth() != 0 {
		t.Error("packet not retired")
	}
}

func TestBarrierPacket(t *testing.T) {
	p := NewPartition("p", testXCDs(1), nil, PolicyRoundRobin)
	q := hsa.NewQueue("q", 4)
	dep := hsa.NewSignal("dep", 1)
	dep.Sub(5*sim.Microsecond, 1) // satisfied at t=5µs
	out := hsa.NewSignal("out", 1)
	q.Enqueue(hsa.Packet{Type: hsa.PacketBarrierAnd, BarrierDeps: []*hsa.Signal{dep}, Completion: out})
	done, err := p.Process(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if done != 5*sim.Microsecond {
		t.Errorf("barrier completed at %v, want 5µs", done)
	}
	// Unsatisfied dependency errors out.
	q.Enqueue(hsa.Packet{Type: hsa.PacketBarrierAnd, BarrierDeps: []*hsa.Signal{hsa.NewSignal("never", 1)}})
	if _, err := p.Process(done, q); err == nil {
		t.Error("unsatisfied barrier should fail")
	}
}

func TestSyncMessagesCounted(t *testing.T) {
	p := NewPartition("p", testXCDs(4), nil, PolicyRoundRobin)
	k := &KernelSpec{Name: "k", FlopsPerItem: 10, Class: config.Vector, Dtype: config.FP32}
	if _, err := p.Dispatch(0, k, 4096, 256, 0); err != nil {
		t.Fatal(err)
	}
	// Non-nominated XCDs (3 of 4) each send one completion sync message.
	var msgs uint64
	for _, x := range p.XCDs() {
		msgs += x.Stats().SyncMessages
	}
	if msgs != 3 {
		t.Errorf("sync messages = %d, want 3 (Fig. 13 ③)", msgs)
	}
}

func TestMemBoundKernelUsesMemTime(t *testing.T) {
	// Give the env a memory model that is clearly the bottleneck and
	// check it dominates the kernel's duration.
	h := mem.NewHBM("hbm", 8, 16, 5.3e12/8, 1<<30, 100*sim.Nanosecond)
	var cursor int64
	env := &ExecEnv{
		MemTime: func(start sim.Time, xcd int, bytes int64, write bool) sim.Time {
			addr := cursor % (1 << 28)
			cursor += bytes
			return h.Access(start, addr, bytes, write)
		},
	}
	p := NewPartition("p", testXCDs(6), env, PolicyRoundRobin)
	k := &KernelSpec{
		Name: "stream", Class: config.Vector, Dtype: config.FP64,
		FlopsPerItem: 2, BytesReadPerItem: 16, BytesWrittenPerItem: 8,
	}
	const items = 1 << 20
	done, err := p.Dispatch(0, k, items, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: total bytes / peak HBM BW.
	minTime := sim.FromSeconds(float64(items*24) / 5.3e12)
	if done < minTime {
		t.Errorf("mem-bound kernel finished at %v, below HBM bound %v", done, minTime)
	}
}

func TestUnsupportedDtypeFallsBack(t *testing.T) {
	// FP8 on CDNA2 is unsupported: should still execute, just slowly.
	spec := config.MI250X().XCD
	x := NewXCD(0, spec, sim.NewRNG(3))
	p := NewPartition("p", []*XCD{x}, nil, PolicyRoundRobin)
	k8 := &KernelSpec{Name: "fp8", Class: config.Matrix, Dtype: config.FP8, FlopsPerItem: 1e4}
	k16 := &KernelSpec{Name: "fp16", Class: config.Matrix, Dtype: config.FP16, FlopsPerItem: 1e4}
	d8, err := p.Dispatch(0, k8, 1024, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	x.ResetStats()
	d16, err := p.Dispatch(0, k16, 1024, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d8 <= d16 {
		t.Errorf("FP8 fallback (%v) should be slower than native FP16 (%v) on CDNA2", d8, d16)
	}
}

func TestSparseDoublesThroughput(t *testing.T) {
	dense := &KernelSpec{Name: "d", Class: config.Matrix, Dtype: config.FP8, FlopsPerItem: 1e6}
	sparse := &KernelSpec{Name: "s", Class: config.Matrix, Dtype: config.FP8, FlopsPerItem: 1e6, Sparse: true}
	p := NewPartition("p", testXCDs(1), nil, PolicyRoundRobin)
	dd, _ := p.Dispatch(0, dense, 38*256, 256, 0)
	p.XCDs()[0].ResetStats()
	ds, _ := p.Dispatch(0, sparse, 38*256, 256, 0)
	ratio := float64(dd) / float64(ds)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("4:2 sparsity speedup = %.2f, want ~2 (Table 1)", ratio)
	}
}

func TestKernelValidate(t *testing.T) {
	if (&KernelSpec{}).Validate() == nil {
		t.Error("unnamed kernel accepted")
	}
	if (&KernelSpec{Name: "k", FlopsPerItem: -1}).Validate() == nil {
		t.Error("negative flops accepted")
	}
}

func BenchmarkDispatch6XCD(b *testing.B) {
	p := NewPartition("spx", testXCDs(6), nil, PolicyRoundRobin)
	k := &KernelSpec{Name: "k", Class: config.Matrix, Dtype: config.FP16, FlopsPerItem: 1e4}
	b.ReportAllocs()
	b.ResetTimer()
	var now sim.Time
	for i := 0; i < b.N; i++ {
		done, err := p.Dispatch(now, k, 228*256, 256, 0)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// Property: dispatch computes every element exactly once regardless of
// how many CUs are harvested.
func TestDispatchCorrectUnderHeavyHarvesting(t *testing.T) {
	spec := *config.MI300A().XCD
	spec.EnabledCUs = 3 // almost everything defective
	rng := sim.NewRNG(99)
	xs := []*XCD{NewXCD(0, &spec, rng), NewXCD(1, &spec, rng)}
	for _, x := range xs {
		if x.EnabledCUs() != 3 {
			t.Fatalf("enabled = %d", x.EnabledCUs())
		}
	}
	space := mem.NewSpace("m", 1<<24)
	counts := make([]int, 2048)
	env := &ExecEnv{Mem: space}
	p := NewPartition("harvested", xs, env, PolicyRoundRobin)
	k := &KernelSpec{
		Name: "count", Class: config.Vector, Dtype: config.FP32, FlopsPerItem: 1,
		Body: func(env *ExecEnv, xcd, wgID, wgSize int, kernarg int64) {
			for l := 0; l < wgSize; l++ {
				i := wgID*wgSize + l
				if i < len(counts) {
					counts[i]++
				}
			}
		},
	}
	if _, err := p.Dispatch(0, k, len(counts), 64, 0); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("element %d computed %d times", i, c)
		}
	}
}

func TestDispatchWithZeroEnabledCUsTypedError(t *testing.T) {
	spec := *config.MI300A().XCD
	spec.EnabledCUs = 0
	x := NewXCD(0, &spec, sim.NewRNG(1))
	// The constructor disables Physical-Enabled = 40 CUs: everything.
	if x.EnabledCUs() != 0 {
		t.Skip("constructor kept some CUs enabled")
	}
	// A partition whose only die has no usable CUs must refuse the
	// dispatch with a typed error — not hang, not panic.
	p := NewPartition("dead", []*XCD{x}, nil, PolicyRoundRobin)
	k := &KernelSpec{Name: "k", Class: config.Vector, Dtype: config.FP32, FlopsPerItem: 1}
	_, err := p.Dispatch(0, k, 64, 64, 0)
	if !errors.Is(err, ErrNoCompute) {
		t.Errorf("dispatch on CU-less partition = %v, want ErrNoCompute", err)
	}
}

// Satellite: CU-harvesting determinism. Same seed must give the identical
// disabled-CU set; the enabled count always matches the spec; and a spec
// with no harvest margin disables nothing.
func TestHarvestingDeterministic(t *testing.T) {
	spec := config.MI300A().XCD
	for seed := uint64(1); seed <= 10; seed++ {
		a := NewXCD(0, spec, sim.NewRNG(seed))
		b := NewXCD(0, spec, sim.NewRNG(seed))
		da, db := a.DisabledCUs(), b.DisabledCUs()
		if len(da) != len(db) {
			t.Fatalf("seed %d: disabled sets differ in size: %v vs %v", seed, da, db)
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("seed %d: disabled sets differ: %v vs %v", seed, da, db)
			}
		}
	}
}

func TestHarvestingMatchesSpecCount(t *testing.T) {
	base := *config.MI300A().XCD
	for _, enabled := range []int{1, 3, 20, 38, 40} {
		spec := base
		spec.EnabledCUs = enabled
		for seed := uint64(1); seed <= 5; seed++ {
			x := NewXCD(0, &spec, sim.NewRNG(seed))
			if got := x.EnabledCUs(); got != enabled {
				t.Errorf("seed %d: EnabledCUs = %d, want %d", seed, got, enabled)
			}
		}
	}
}

func TestNoHarvestWhenAllCUsEnabled(t *testing.T) {
	spec := *config.MI300A().XCD
	spec.EnabledCUs = spec.PhysicalCUs
	x := NewXCD(0, &spec, sim.NewRNG(3))
	if got := x.DisabledCUs(); len(got) != 0 {
		t.Errorf("PhysicalCUs == EnabledCUs but %v disabled", got)
	}
	if x.EnabledCUs() != spec.PhysicalCUs {
		t.Errorf("EnabledCUs = %d, want %d", x.EnabledCUs(), spec.PhysicalCUs)
	}
}

func TestDisableCUMidRun(t *testing.T) {
	x := testXCDs(1)[0]
	before := x.EnabledCUs()
	// Find an enabled CU and kill it.
	var victim int = -1
	for _, c := range x.CUs() {
		if !c.Disabled {
			victim = c.Index
			break
		}
	}
	if !x.DisableCU(victim) {
		t.Fatal("DisableCU on enabled CU returned false")
	}
	if x.DisableCU(victim) {
		t.Error("DisableCU on already-disabled CU returned true")
	}
	if x.DisableCU(999) {
		t.Error("DisableCU out of range returned true")
	}
	if got := x.EnabledCUs(); got != before-1 {
		t.Errorf("EnabledCUs after loss = %d, want %d", got, before-1)
	}
	rng := sim.NewRNG(5)
	n := x.DisableRandomCUs(4, rng)
	if n != 4 || x.EnabledCUs() != before-5 {
		t.Errorf("DisableRandomCUs disabled %d (enabled now %d), want 4 (%d)", n, x.EnabledCUs(), before-5)
	}
}

func TestXCDLossRedistributesDispatch(t *testing.T) {
	xs := testXCDs(4)
	env := &ExecEnv{}
	p := NewPartition("p", xs, env, PolicyRoundRobin)
	k := &KernelSpec{Name: "k", Class: config.Vector, Dtype: config.FP32, FlopsPerItem: 1}
	if _, err := p.Dispatch(0, k, 400*64, 64, 0); err != nil { // 400 workgroups
		t.Fatal(err)
	}
	for i, x := range xs {
		if x.Stats().Workgroups == 0 {
			t.Fatalf("healthy dispatch left xcd%d idle", i)
		}
	}
	// Lose die 2 mid-run: the next dispatch must go to survivors only,
	// and the survivors must absorb the dead die's share.
	if err := p.SetXCDOnline(2, false); err != nil {
		t.Fatal(err)
	}
	if p.OnlineXCDs() != 3 || p.XCDOnline(2) {
		t.Fatalf("OnlineXCDs = %d, XCDOnline(2) = %v", p.OnlineXCDs(), p.XCDOnline(2))
	}
	baseline := make([]uint64, 4)
	for i, x := range xs {
		baseline[i] = x.Stats().Workgroups
	}
	if _, err := p.Dispatch(0, k, 400*64, 64, 0); err != nil {
		t.Fatal(err)
	}
	if got := xs[2].Stats().Workgroups - baseline[2]; got != 0 {
		t.Errorf("offline xcd2 executed %d workgroups", got)
	}
	var survivors uint64
	for _, i := range []int{0, 1, 3} {
		delta := xs[i].Stats().Workgroups - baseline[i]
		if delta == 0 {
			t.Errorf("survivor xcd%d received no redistributed work", i)
		}
		survivors += delta
	}
	if survivors != 400 {
		t.Errorf("survivors executed %d workgroups, want all 400", survivors)
	}
	// Losing every die leaves nothing to run on: typed error.
	for i := range xs {
		p.SetXCDOnline(i, false)
	}
	if _, err := p.Dispatch(0, k, 64, 64, 0); !errors.Is(err, ErrNoCompute) {
		t.Errorf("dispatch with all dies offline = %v, want ErrNoCompute", err)
	}
	if err := p.SetXCDOnline(9, false); err == nil {
		t.Error("SetXCDOnline out of range should error")
	}
}
