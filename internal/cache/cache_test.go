package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSetAssocHitAfterFill(t *testing.T) {
	c := NewSetAssoc("l1", 32*1024, 128, 8)
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("warm access missed")
	}
	if r := c.Access(0x1000+64, false); !r.Hit {
		t.Error("same-line access missed")
	}
	if r := c.Access(0x1000+128, false); r.Hit {
		t.Error("next-line access hit without fill")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 2-way, 2 sets, 128B lines: total 512B.
	c := NewSetAssoc("tiny", 512, 128, 2)
	// Three lines mapping to set 0 (line addresses 0, 2, 4).
	c.Access(0*128, false)
	c.Access(2*128, false)
	c.Access(0*128, false) // touch line 0: now MRU
	c.Access(4*128, false) // evicts line 2 (LRU)
	if !c.Contains(0 * 128) {
		t.Error("MRU line evicted")
	}
	if c.Contains(2 * 128) {
		t.Error("LRU line survived")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestSetAssocWritebackOnDirtyEviction(t *testing.T) {
	c := NewSetAssoc("tiny", 256, 128, 1) // direct-mapped, 2 sets
	c.Access(0, true)                     // dirty line at set 0
	r := c.Access(2*128, false)           // conflicts with set 0
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Errorf("expected writeback of addr 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Error("writeback not counted")
	}
}

func TestSetAssocInvalidate(t *testing.T) {
	c := NewSetAssoc("l1", 1024, 128, 2)
	c.Access(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("Invalidate = %v, %v", present, dirty)
	}
	if c.Contains(0) {
		t.Error("line survived invalidate")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Error("double invalidate found line")
	}
}

func TestSetAssocFlush(t *testing.T) {
	c := NewSetAssoc("l1", 2048, 128, 2)
	c.Access(0, true)
	c.Access(128, false)
	c.Access(256, true)
	if wb := c.Flush(); wb != 2 {
		t.Errorf("Flush writebacks = %d, want 2", wb)
	}
	if c.Occupancy() != 0 {
		t.Error("Flush left lines")
	}
}

func TestSetAssocBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets did not panic")
		}
	}()
	NewSetAssoc("bad", 3*128, 128, 1)
}

// Property: occupancy never exceeds capacity and hit+miss == accesses.
func TestSetAssocInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := NewSetAssoc("p", 4096, 128, 4)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(int64(a), w)
		}
		if c.Occupancy() > 32 { // 4096/128
			return false
		}
		st := c.Stats()
		return st.Hits+st.Misses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an access immediately after an access to the same line hits.
func TestSetAssocTemporalLocalityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewSetAssoc("p", 64*1024, 128, 8)
		for _, a := range addrs {
			c.Access(int64(a), false)
			if r := c.Access(int64(a), false); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInfinityCacheGeometry(t *testing.T) {
	// MI300A: 128 slices × 2 MiB = 256 MiB.
	ic := NewInfinityCache(128, 2<<20, 17e12, 20*sim.Nanosecond, true)
	if got := ic.TotalBytes(); got != 256<<20 {
		t.Errorf("TotalBytes = %d, want 256 MiB", got)
	}
	if ic.Slices() != 128 {
		t.Errorf("Slices = %d", ic.Slices())
	}
}

func TestInfinityCacheHitServesWithoutHBM(t *testing.T) {
	ic := NewInfinityCache(4, 2<<20, 1e12, 0, false)
	r1 := ic.Access(0, 0, 0, 128, false)
	if r1.Hit || r1.HBMBytes == 0 {
		t.Errorf("cold access: %+v", r1)
	}
	r2 := ic.Access(r1.Done, 0, 0, 128, false)
	if !r2.Hit || r2.HBMBytes != 0 {
		t.Errorf("warm access: %+v", r2)
	}
}

func TestInfinityCacheStreamPrefetch(t *testing.T) {
	ic := NewInfinityCache(1, 2<<20, 1e12, 0, true)
	var now sim.Time
	// Sequential line misses should trigger next-line prefetches, so
	// after a warmup the stream starts hitting on prefetched lines.
	for i := int64(0); i < 64; i++ {
		r := ic.Access(now, 0, i*128, 128, false)
		now = r.Done
	}
	st := ic.Stats()
	if st.Prefetches == 0 {
		t.Fatal("stream prefetcher never fired")
	}
	if st.PrefHits == 0 {
		t.Fatal("prefetched lines never hit")
	}
	if st.HitRate() < 0.4 {
		t.Errorf("sequential stream hit rate = %.2f, want >= 0.4 with prefetch", st.HitRate())
	}
}

func TestInfinityCacheNoPrefetchLowerHitRate(t *testing.T) {
	with := NewInfinityCache(1, 2<<20, 1e12, 0, true)
	without := NewInfinityCache(1, 2<<20, 1e12, 0, false)
	for i := int64(0); i < 256; i++ {
		with.Access(0, 0, i*128, 128, false)
		without.Access(0, 0, i*128, 128, false)
	}
	if with.HitRate() <= without.HitRate() {
		t.Errorf("prefetch hit rate %.2f should exceed no-prefetch %.2f",
			with.HitRate(), without.HitRate())
	}
}

func TestEffectiveBW(t *testing.T) {
	// At 100% hit rate the effective BW is the cache BW; at 0% the HBM BW.
	if got := EffectiveBW(1, 17e12, 5.3e12); got != 17e12 {
		t.Errorf("EffectiveBW(1) = %g", got)
	}
	if got := EffectiveBW(0, 17e12, 5.3e12); got != 5.3e12 {
		t.Errorf("EffectiveBW(0) = %g", got)
	}
	mid := EffectiveBW(0.5, 17e12, 5.3e12)
	if mid <= 5.3e12 || mid >= 17e12 {
		t.Errorf("EffectiveBW(0.5) = %g, want between HBM and cache BW", mid)
	}
	// Clamping.
	if EffectiveBW(-1, 17e12, 5.3e12) != 5.3e12 || EffectiveBW(2, 17e12, 5.3e12) != 17e12 {
		t.Error("EffectiveBW did not clamp")
	}
}

// Property: EffectiveBW is monotonic in hit rate.
func TestEffectiveBWMonotonicProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		ha, hb := float64(a)/255, float64(b)/255
		if ha > hb {
			ha, hb = hb, ha
		}
		return EffectiveBW(ha, 17e12, 5.3e12) <= EffectiveBW(hb, 17e12, 5.3e12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bytesPerRun reports the heap bytes one call of f allocates: the
// process-wide TotalAlloc delta over runs calls, averaged, and the least
// such average over five windows. Anything else that allocates inside a
// window only adds bytes to it, so the minimum never under-reports f.
func bytesPerRun(runs int, f func()) uint64 {
	least := ^uint64(0)
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

var sinkCache *SetAssoc

// TestNewSetAssocCostIndependentOfSets pins lazy construction: a 32 MiB
// cache with 32,768 sets costs what a 2 MiB Infinity Cache slice with
// 1,024 sets does, a few hundred bytes.
func TestNewSetAssocCostIndependentOfSets(t *testing.T) {
	l3 := bytesPerRun(100, func() { sinkCache = NewSetAssoc("l3", 32<<20, 64, 16) })
	slice := bytesPerRun(100, func() { sinkCache = NewSetAssoc("mall", 2<<20, 128, 16) })
	if l3 != slice || l3 > 512 {
		t.Errorf("NewSetAssoc allocates %d B for 32,768 sets and %d B for 1,024 sets, want the same few hundred bytes", l3, slice)
	}
}

var sinkInfinityCache *InfinityCache

// TestNewInfinityCacheAllocBudget pins what MI300A's idle Infinity Cache
// costs: the list of its 128 slices, none of them built.
func TestNewInfinityCacheAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 1420, 3
	build := func() { sinkInfinityCache = NewInfinityCache(128, 2<<20, 17e12, 25*sim.Nanosecond, true) }
	bytes := bytesPerRun(100, build)
	allocs := testing.AllocsPerRun(100, build)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("NewInfinityCache(128 slices) allocates %d B in %.0f allocations, want at most %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// TestInfinityCacheBuildsOnlyTouchedSlices checks that an access builds
// its own slice and no other, that the counters of untouched slices read
// as zero, and that a slice first touched after Release panics as a
// released slice does.
func TestInfinityCacheBuildsOnlyTouchedSlices(t *testing.T) {
	ic := NewInfinityCache(128, 2<<20, 17e12, 25*sim.Nanosecond, true)
	built := func() (chs []int) {
		for ch, sl := range ic.slices {
			if sl != nil {
				chs = append(chs, ch)
			}
		}
		return chs
	}
	if chs := built(); chs != nil {
		t.Fatalf("a new cache built slices %v", chs)
	}
	ic.Access(0, 5, 4096, 128, true)
	ic.Access(0, 5, 4096, 128, false)
	if chs := built(); len(chs) != 1 || chs[0] != 5 {
		t.Errorf("two accesses on channel 5 built slices %v, want [5]", chs)
	}
	if st := ic.Stats(); st.Hits != 1 || st.Misses != 1 || ic.Accesses() != 2 {
		t.Errorf("Stats %+v after %d accesses, want 1 hit and 1 miss of 2", st, ic.Accesses())
	}
	ic.ResetStats()
	if chs := built(); len(chs) != 1 {
		t.Errorf("ResetStats built slices: %v", chs)
	}
	ic.Release()
	if !panics(func() { ic.Access(0, 6, 0, 128, false) }) {
		t.Error("touching a new slice after Release did not panic")
	}
	if !panics(func() { ic.Access(0, 5, 8192, 128, false) }) {
		t.Error("filling a released slice did not panic")
	}
}

// TestSetAssocSteadyStateZeroAllocs pins 0 allocs/op for hits and
// evicting misses once every set has been filled.
func TestSetAssocSteadyStateZeroAllocs(t *testing.T) {
	c := NewSetAssoc("l2", benchSize, benchLine, benchWays)
	for a := int64(0); a < benchSize; a += benchLine {
		c.Access(a, true)
	}
	var next int64
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Access(next%benchSize, false)
		next += benchLine
	}); allocs != 0 {
		t.Errorf("hits allocate %.2f/op, want 0", allocs)
	}
	next = benchSize
	if allocs := testing.AllocsPerRun(1000, func() {
		if r := c.Access(next, true); !r.Evicted {
			t.Fatalf("access %#x did not evict", next)
		}
		next += benchLine
	}); allocs != 0 {
		t.Errorf("evicting misses allocate %.2f/op, want 0", allocs)
	}
}

// TestInfinityCachePrefetchWritebackTraffic checks the traffic ledger of
// a small Infinity Cache under a write-heavy stream with prefetch on: the
// residual HBM traffic is one line per demand miss, per dirty writeback
// (including those of prefetch fills) and per prefetch.
func TestInfinityCachePrefetchWritebackTraffic(t *testing.T) {
	const lineSize = 128
	ic := NewInfinityCache(2, 16<<10, 1e12, 0, true)
	rng := rand.New(rand.NewSource(7))
	var hbm int64
	var now sim.Time
	addr := int64(0)
	for i := 0; i < 20000; i++ {
		if rng.Intn(8) == 0 {
			addr = rng.Int63n(1<<20) &^ (lineSize - 1)
		} else {
			addr += lineSize
		}
		r := ic.Access(now, int(addr/4096)%2, addr, lineSize, rng.Intn(4) != 0)
		hbm += r.HBMBytes
		now = r.Done
	}
	st := ic.Stats()
	if st.Writebacks == 0 || st.Prefetches == 0 {
		t.Fatalf("stream exercised too little: %+v", st)
	}
	if want := lineSize * int64(st.Misses+st.Writebacks+st.Prefetches); hbm != want {
		t.Errorf("Σ HBMBytes = %d, want lineSize × (misses %d + writebacks %d + prefetches %d) = %d",
			hbm, st.Misses, st.Writebacks, st.Prefetches, want)
	}
}

// The XCD L2 geometry: 4 MiB of 128-B lines, 16 ways, 2048 sets.
const benchSize, benchLine, benchWays = 4 << 20, 128, 16

// BenchmarkSetAssocAccess covers the access path's three regimes on the
// XCD L2 geometry: hits at random LRU depths in a warm cache whose every
// set is full, a write-mixed stream of twice the capacity that misses and
// evicts on every access, and the original mix of MRU hits and evicting
// misses from a 64-B stride over twice the capacity.
func BenchmarkSetAssocAccess(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := NewSetAssoc("l2", benchSize, benchLine, benchWays)
		const lines = benchSize / benchLine
		addrs := make([]int64, 4096)
		x := uint32(1)
		for i := range addrs {
			x = x*1664525 + 1013904223
			addrs[i] = int64(x>>8%lines) * benchLine
		}
		for a := int64(0); a < benchSize; a += benchLine {
			c.Access(a, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkResult = c.Access(addrs[i&4095], i%3 == 0)
		}
	})
	b.Run("stream-miss", func(b *testing.B) {
		c := NewSetAssoc("l2", benchSize, benchLine, benchWays)
		for a := int64(0); a < 2*benchSize; a += benchLine {
			c.Access(a, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkResult = c.Access(int64(i*benchLine)%(2*benchSize), i%3 == 0)
		}
	})
	b.Run("mixed", func(b *testing.B) {
		c := NewSetAssoc("l2", benchSize, benchLine, benchWays)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkResult = c.Access(int64(i*64)%(2*benchSize), i%3 == 0)
		}
	})
}

var sinkResult Result

// BenchmarkReadRangeTile reads the policy ablation's tiles through an
// MI300A XCD L2: 1 MiB tiles of 8,192 lines, four in each set, each tile
// read by four consecutive workgroups as block scheduling places them.
// A tile's first read misses every line; the next three find its lines
// at the front of their sets. One op is one tile read.
func BenchmarkReadRangeTile(b *testing.B) {
	c := NewSetAssoc("l2", benchSize, benchLine, benchWays)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMisses = c.ReadRange(int64(i/4)<<20, 1<<20)
	}
}

var sinkMisses int

// drainRecycled empties the package free list, so a test that fills it
// leaves the next test a fresh process's state.
func drainRecycled() {
	recycled.mu.Lock()
	defer recycled.mu.Unlock()
	recycled.bytes = 0
	recycled.dirs.byLen = nil
	recycled.keys.byLen = nil
}

func TestSetAssocReleasedPanicsOnFill(t *testing.T) {
	t.Cleanup(drainRecycled)
	c := NewSetAssoc("l2", 64<<10, 128, 8)
	for a := int64(0); a < 32<<10; a += 128 {
		c.Access(a, true)
	}
	before := c.Stats()
	c.Release()
	c.Release() // a second Release does nothing
	if got := c.Stats(); got != before {
		t.Errorf("Stats after Release = %+v, want %+v", got, before)
	}
	if c.Occupancy() != 0 || c.Contains(0) {
		t.Error("a released cache still holds lines")
	}
	for name, fill := range map[string]func(){
		"Access":    func() { c.Access(0, false) },
		"Prefetch":  func() { c.Prefetch(0) },
		"ReadRange": func() { c.ReadRange(0, 4096) },
	} {
		if !panics(fill) {
			t.Errorf("%s on a released cache did not panic", name)
		}
	}
	ic := NewInfinityCache(2, 16<<10, 1e12, 0, true)
	ic.Access(0, 0, 0, 128, true)
	ic.Release()
	if ic.Stats().Misses != 1 || !panics(func() { ic.Access(0, 0, 1<<20, 128, false) }) {
		t.Error("a released Infinity Cache lost its counters or took a fill")
	}
}

// TestRecycleKeepsAtMostTheCap releases more tag storage than recycleCap
// and checks the free list kept no more than the cap, and close to it.
func TestRecycleKeepsAtMostTheCap(t *testing.T) {
	drainRecycled()
	t.Cleanup(drainRecycled)
	const sets, ways, line = 1024, 16, 128
	perCache := sets*4 + sets*ways*8 // directory and every key page
	var caches []*SetAssoc
	for n := 0; n*perCache <= 2*recycleCap; n++ {
		c := NewSetAssoc("mall", sets*ways*line, line, ways)
		for s := int64(0); s < sets; s++ {
			c.Access(s*line, true) // claims every set's block
		}
		caches = append(caches, c)
	}
	for _, c := range caches {
		c.Release()
	}
	recycled.mu.Lock()
	kept := recycled.bytes
	recycled.mu.Unlock()
	if kept > recycleCap || kept < recycleCap-perCache {
		t.Errorf("released %d caches of %d B; free list keeps %d B, want at most the %d B cap and within a cache of it",
			len(caches), perCache, kept, recycleCap)
	}
	// A new cache of the same geometry takes its storage from the list.
	c := NewSetAssoc("mall", sets*ways*line, line, ways)
	c.Access(0, false)
	recycled.mu.Lock()
	taken := kept - recycled.bytes
	recycled.mu.Unlock()
	if want := sets*4 + sets*ways*8/32; taken != want {
		t.Errorf("a cache's first fill took %d B from the free list, want its directory and one page, %d B", taken, want)
	}
}
