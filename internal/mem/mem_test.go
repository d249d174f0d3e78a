package mem

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAddressMapDeterministicAndInRange(t *testing.T) {
	m := NewAddressMap(4096, 8, 16)
	for addr := int64(0); addr < 1<<22; addr += 4096 {
		s1, ch := m.Locate(addr)
		if s2, ch2 := m.Locate(addr); s1 != s2 || ch != ch2 {
			t.Fatal("Locate not deterministic")
		}
		if s1 < 0 || s1 >= 8 {
			t.Fatalf("stack %d out of range", s1)
		}
		if ch < 0 || ch >= 128 {
			t.Fatalf("channel %d out of range", ch)
		}
		if ch/16 != s1 {
			t.Fatalf("channel %d not within stack %d", ch, s1)
		}
	}
}

func TestAddressMapSameGranuleSameStack(t *testing.T) {
	// §IV.D: every 4KB of sequential addresses maps to the same stack.
	m := NewAddressMap(4096, 8, 16)
	base := int64(12345) * 4096
	want, _ := m.Locate(base)
	for off := int64(0); off < 4096; off += 64 {
		if got, _ := m.Locate(base + off); got != want {
			t.Fatalf("address %d within granule mapped to stack %d, want %d", base+off, got, want)
		}
	}
}

func TestAddressMapBalance(t *testing.T) {
	// Sequential granules should spread roughly evenly across stacks.
	m := NewAddressMap(4096, 8, 16)
	counts := make([]int, 8)
	const n = 64_000
	for g := int64(0); g < n; g++ {
		s, _ := m.Locate(g * 4096)
		counts[s]++
	}
	for s, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.15 { // ideal 0.125
			t.Errorf("stack %d got %.3f of granules, want ~0.125", s, frac)
		}
	}
}

func TestAddressMapNUMADomains(t *testing.T) {
	m := NewAddressMap(4096, 8, 16)
	m.NUMADomains = 4 // NPS4: stacks {0,1},{2,3},{4,5},{6,7}
	m.Capacity = 1 << 30
	span := int64(1<<30) / 4
	for g := int64(0); g < 10000; g++ {
		addr := g * 4096 * 64 // spread across the whole capacity
		if addr >= 1<<30 {
			break
		}
		domain := int(addr / span)
		s, _ := m.Locate(addr)
		if s/2 != domain {
			t.Fatalf("addr %d: stack %d not in NUMA domain %d", addr, s, domain)
		}
	}
	// Addresses at the very top clamp into the last domain.
	if s, _ := m.Locate(1<<30 - 1); s/2 != 3 {
		t.Errorf("top address in domain %d, want 3", s/2)
	}
}

// A map set by hand to more NUMA domains than stacks has a domain with
// no stack to interleave over; locating an address in it must panic, not
// name a stack that does not exist.
func TestAddressMapMoreDomainsThanStacksPanics(t *testing.T) {
	m := NewAddressMap(4096, 2, 4)
	m.NUMADomains, m.Capacity = 4, 1<<30
	if !panics(func() { m.Locate(0) }) {
		t.Fatal("4 NUMA domains over 2 stacks located an address")
	}
}

func TestHBMPeakBW(t *testing.T) {
	// MI300A-like: 8 stacks × 16 channels, 5.3 TB/s total.
	h := NewHBM("hbm3", 8, 16, 5.3e12/8, 128<<30, 100*sim.Nanosecond)
	if got := h.PeakBW(); got < 5.29e12 || got > 5.31e12 {
		t.Errorf("PeakBW = %g, want 5.3e12", got)
	}
	if len(h.Channels()) != 128 {
		t.Errorf("channels = %d, want 128", len(h.Channels()))
	}
}

func TestHBMStreamingApproachesPeak(t *testing.T) {
	h := NewHBM("hbm3", 8, 16, 5.3e12/8, 128<<30, 100*sim.Nanosecond)
	// Stream 1 GB in 4KB granule-aligned requests issued back-to-back.
	var end sim.Time
	const total = 1 << 30
	for addr := int64(0); addr < total; addr += 65536 {
		if done := h.Access(0, addr, 65536, false); done > end {
			end = done
		}
	}
	achieved := float64(total) / end.Seconds()
	if frac := achieved / h.PeakBW(); frac < 0.7 {
		t.Errorf("streaming achieved %.2f of peak, want > 0.7", frac)
	}
}

func TestHBMSingleChannelBound(t *testing.T) {
	h := NewHBM("hbm", 8, 16, 5.3e12/8, 128<<30, 0)
	// Hammer a single granule: all traffic lands on one channel.
	var end sim.Time
	const total = 1 << 24
	for i := int64(0); i < total/4096; i++ {
		if done := h.Access(0, 0, 4096, false); done > end {
			end = done
		}
	}
	achieved := float64(total) / end.Seconds()
	perChannel := h.PeakBW() / 128
	if achieved > perChannel*1.01 {
		t.Errorf("single-granule traffic achieved %g, should be capped at one channel %g", achieved, perChannel)
	}
}

func TestHBMLatencyApplied(t *testing.T) {
	h := NewHBM("hbm", 1, 1, 1e12, 1<<30, 100*sim.Nanosecond)
	done := h.Access(0, 0, 64, false)
	if done < 100*sim.Nanosecond {
		t.Errorf("access completed at %v, before array latency", done)
	}
}

func TestHBMStatsAndReset(t *testing.T) {
	h := NewHBM("hbm", 2, 2, 1e12, 1<<30, 0)
	h.Access(0, 0, 4096, false)
	h.Access(0, 8192, 4096, true)
	if h.BytesMoved() != 8192 {
		t.Errorf("BytesMoved = %d", h.BytesMoved())
	}
	var reads, writes uint64
	for _, c := range h.Channels() {
		r, w := c.Counts()
		reads += r
		writes += w
	}
	if reads != 1 || writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 1/1", reads, writes)
	}
	h.ResetStats()
	if h.BytesMoved() != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestSetNUMADomains(t *testing.T) {
	h := NewHBM("hbm", 8, 16, 1e12, 1<<30, 0)
	if err := h.SetNUMADomains(4); err != nil {
		t.Errorf("NPS4: %v", err)
	}
	if err := h.SetNUMADomains(3); err == nil {
		t.Error("3 domains over 8 stacks should fail")
	}
}

func TestSpaceReadWriteRoundTrip(t *testing.T) {
	s := NewSpace("hbm", 128<<30)
	data := []byte("the fastest way to move data is to not move it at all")
	s.Write(77<<30, data) // deep into the sparse space
	got := make([]byte, len(data))
	s.Read(77<<30, got)
	if string(got) != string(data) {
		t.Errorf("round trip = %q", got)
	}
	// Sparse: only touched pages committed.
	if s.TouchedBytes() > 1<<20 {
		t.Errorf("TouchedBytes = %d, sparse backing leaked", s.TouchedBytes())
	}
}

func TestSpaceCrossPageBoundary(t *testing.T) {
	s := NewSpace("x", 1<<30)
	addr := int64(pageSize - 3)
	s.WriteUint64(addr, 0xDEADBEEFCAFEF00D)
	if got := s.ReadUint64(addr); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("cross-page u64 = %x", got)
	}
}

func TestSpaceZeroFill(t *testing.T) {
	s := NewSpace("x", 1<<20)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xFF
	}
	s.Read(5000, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched memory did not read as zero")
		}
	}
}

func TestSpaceFloatHelpers(t *testing.T) {
	s := NewSpace("x", 1<<20)
	s.WriteFloat64(64, 2.75)
	if got := s.ReadFloat64(64); got != 2.75 {
		t.Errorf("float64 = %v", got)
	}
	s.WriteUint32(128, 228)
	if got := s.ReadUint32(128); got != 228 {
		t.Errorf("uint32 = %d", got)
	}
}

func TestSpaceAlloc(t *testing.T) {
	s := NewSpace("x", 1<<20)
	a, err := s.Alloc(1000, 256)
	if err != nil || a%256 != 0 {
		t.Fatalf("Alloc = %d, %v", a, err)
	}
	b, err := s.Alloc(1000, 4096)
	if err != nil || b%4096 != 0 || b < a+1000 {
		t.Fatalf("second Alloc = %d, %v", b, err)
	}
	if _, err := s.Alloc(1<<21, 0); err == nil {
		t.Error("over-capacity alloc should fail")
	}
	if _, err := s.Alloc(16, 3); err == nil {
		t.Error("non-power-of-two alignment should fail")
	}
	// A reservation whose end overflows int64 does not fit either, and
	// leaves the watermark where it was.
	brk := s.Allocated()
	if base, err := s.Alloc(math.MaxInt64-8, 1); err == nil {
		t.Errorf("Alloc(MaxInt64-8) = %d, want an out-of-memory error", base)
	}
	if s.Allocated() != brk {
		t.Errorf("Allocated = %d after a refused Alloc, want %d", s.Allocated(), brk)
	}
}

func TestSpaceOutOfBoundsPanics(t *testing.T) {
	s := NewSpace("x", 1024)
	if !panics(func() { s.Write(1020, []byte{1, 2, 3, 4, 5}) }) {
		t.Error("OOB write did not panic")
	}
	// An access whose end overflows int64 is out of range too, not
	// wrapped back into the space.
	big := NewSpace("big", 1<<30)
	for _, addr := range []int64{math.MaxInt64 - 3, math.MaxInt64 - 7, math.MaxInt64} {
		if !panics(func() { big.WriteFloat64(addr, 1.5) }) {
			t.Errorf("WriteFloat64(%#x) did not panic", addr)
		}
		if !panics(func() { big.ReadFloat64(addr) }) {
			t.Errorf("ReadFloat64(%#x) did not panic", addr)
		}
		if !panics(func() { big.Write(addr, make([]byte, 8)) }) {
			t.Errorf("Write(%#x) did not panic", addr)
		}
	}
	if big.TouchedBytes() != 0 {
		t.Errorf("TouchedBytes = %d after refused accesses, want 0", big.TouchedBytes())
	}
}

func TestCopyBetweenSpaces(t *testing.T) {
	src := NewSpace("host", 1<<20)
	dst := NewSpace("dev", 1<<20)
	data := make([]byte, 200_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	src.Write(100, data)
	Copy(dst, 5000, src, 100, int64(len(data)))
	got := make([]byte, len(data))
	dst.Read(5000, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("Copy mismatch at %d", i)
		}
	}
}

// Property: any write then read at the same address returns the data.
func TestSpaceRoundTripProperty(t *testing.T) {
	s := NewSpace("p", 1<<30)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := int64(addr) % (1<<30 - int64(len(data)))
		s.Write(a, data)
		got := make([]byte, len(data))
		s.Read(a, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: channel occupancy never decreases and access completion is
// monotonic with request size.
func TestChannelMonotonicProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := &Channel{BW: 1e11}
		var prev sim.Time
		for _, sz := range sizes {
			end := c.OccupyAt(0, -1, int64(sz)+1, false)
			if end < prev {
				return false
			}
			prev = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRetireChannelRedirects(t *testing.T) {
	h := NewHBM("hbm", 1, 4, 4e12, 1<<30, 0)
	// Find which channel addr 0 interleaves onto, then retire it.
	_, victim := h.Map.Locate(0)
	if err := h.RetireChannel(victim); err != nil {
		t.Fatal(err)
	}
	if h.RetiredChannels() != 1 || h.LiveChannels() != 3 {
		t.Fatalf("retired/live = %d/%d, want 1/3", h.RetiredChannels(), h.LiveChannels())
	}
	h.Access(0, 0, 4096, false)
	if got := h.Channel(victim).BytesMoved(); got != 0 {
		t.Errorf("retired channel served %d bytes, want 0", got)
	}
	want := (victim + 1) % 4
	if got := h.Channel(want).BytesMoved(); got != 4096 {
		t.Errorf("redirect target channel %d served %d bytes, want 4096", want, got)
	}
}

func TestRetireChannelDeterministic(t *testing.T) {
	dist := func() []uint64 {
		h := NewHBM("hbm", 2, 4, 2e12, 1<<30, 0)
		for _, ch := range []int{1, 4, 5} {
			if err := h.RetireChannel(ch); err != nil {
				t.Fatal(err)
			}
		}
		for addr := int64(0); addr < 1<<22; addr += 4096 {
			h.Access(0, addr, 4096, false)
		}
		var out []uint64
		for _, c := range h.Channels() {
			out = append(out, c.BytesMoved())
		}
		return out
	}
	a, b := dist(), dist()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("redirect distribution diverged at channel %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRetireLastLiveChannelRefused(t *testing.T) {
	h := NewHBM("hbm", 1, 2, 1e12, 1<<30, 0)
	if err := h.RetireChannel(0); err != nil {
		t.Fatal(err)
	}
	if err := h.RetireChannel(0); err != nil {
		t.Errorf("re-retiring an already-retired channel should be a no-op, got %v", err)
	}
	if err := h.RetireChannel(1); err == nil {
		t.Error("retiring the last live channel should be refused")
	}
	if err := h.RetireChannel(7); err == nil {
		t.Error("out-of-range channel should be refused")
	}
}

func TestRetirementDegradesBandwidth(t *testing.T) {
	stream := func(retire int) float64 {
		h := NewHBM("hbm", 8, 16, 5.3e12/8, 128<<30, 0)
		for ch := 0; ch < retire; ch++ {
			if err := h.RetireChannel(ch); err != nil {
				t.Fatal(err)
			}
		}
		var end sim.Time
		const total = 1 << 28
		for addr := int64(0); addr < total; addr += 65536 {
			if done := h.Access(0, addr, 65536, false); done > end {
				end = done
			}
		}
		return float64(total) / end.Seconds()
	}
	healthy := stream(0)
	degraded := stream(32) // a quarter of the channels mapped out
	if !(degraded > 0 && degraded < healthy*0.9) {
		t.Errorf("degraded BW %g not clearly below healthy %g", degraded, healthy)
	}
}

func TestPeakBWExcludesRetired(t *testing.T) {
	h := NewHBM("hbm", 1, 4, 4e12, 1<<30, 0)
	if err := h.RetireChannel(2); err != nil {
		t.Fatal(err)
	}
	if got := h.PeakBW(); got != 3e12 {
		t.Errorf("PeakBW with 1 of 4 retired = %g, want 3e12", got)
	}
}

func TestECCStormAddsLatencyAndCounts(t *testing.T) {
	h := NewHBM("hbm", 1, 1, 1e12, 1<<30, 0)
	clean := h.Access(0, 0, 4096, false)
	h.ResetStats()
	if err := h.SetECCStorm(1.0, 500*sim.Nanosecond, 1); err != nil {
		t.Fatal(err)
	}
	// A retry pays the correction latency and then re-transfers the chunk.
	stormy := h.Access(0, 0, 4096, false)
	want := clean + 500*sim.Nanosecond + sim.FromSeconds(4096/1e12)
	if stormy != want {
		t.Errorf("ECC access at rate 1.0 = %v, want clean + 500ns + retransfer = %v", stormy, want)
	}
	if h.ECCEvents() != 1 {
		t.Errorf("ECCEvents = %d, want 1", h.ECCEvents())
	}
	h.ResetStats()
	if h.ECCEvents() != 0 {
		t.Error("ResetStats did not clear ECC event counters")
	}
	// The storm configuration itself survives a stats reset.
	if after := h.Access(0, 0, 4096, false); after <= clean {
		t.Error("ECC storm configuration lost across ResetStats")
	}
	if err := h.SetECCStorm(1.5, 0, 1); err == nil {
		t.Error("ECC rate > 1 should be rejected")
	}
}

func TestECCStormDeterministic(t *testing.T) {
	run := func() (uint64, sim.Time) {
		h := NewHBM("hbm", 2, 8, 2e12, 1<<30, 0)
		if err := h.SetECCStorm(0.01, 200*sim.Nanosecond, 99); err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		for addr := int64(0); addr < 1<<24; addr += 4096 {
			if done := h.Access(0, addr, 4096, false); done > end {
				end = done
			}
		}
		return h.ECCEvents(), end
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("same-seed ECC storms diverged: %d/%v vs %d/%v", e1, t1, e2, t2)
	}
	if e1 == 0 {
		t.Error("0.01 rate over 4096 chunks produced no ECC events")
	}
}

func BenchmarkHBMAccess(b *testing.B) {
	h := NewHBM("hbm3", 8, 16, 5.3e12/8, 128<<30, 100*sim.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(sim.Time(i), int64(i)*4096%(1<<30), 4096, i%2 == 0)
	}
}

// BenchmarkHBMStream times the granule walk as the tenant isolation
// experiment drives it: 1 MiB accesses streaming through a tenant's
// quarter of the MI300X's 192 GiB over 8 stacks × 16 channels, at NPS1
// and at NPS4, where the quarter is one NUMA domain. It reports the time
// per 4 KiB granule.
func BenchmarkHBMStream(b *testing.B) {
	for _, nps := range []int{1, 4} {
		b.Run(fmt.Sprintf("NPS%d", nps), func(b *testing.B) {
			const capacity, chunk = 192 << 30, 1 << 20
			h := NewHBM("hbm3", 8, 16, 5.3e12/8, capacity, 120*sim.Nanosecond)
			if err := h.SetNUMADomains(nps); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(0, int64(i)*chunk%(capacity/4), chunk, i%2 == 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.ChunksIssued()), "ns/granule")
		})
	}
}

func BenchmarkSpaceWrite(b *testing.B) {
	s := NewSpace("bench", 1<<40)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(int64(i%1024)*4096, buf)
	}
}

func TestRowBufferSequentialVsRandom(t *testing.T) {
	seq := NewHBM("hbm", 1, 1, 1e12, 1<<30, 0)
	for i := int64(0); i < 4096; i++ {
		seq.Access(0, i*128, 128, false)
	}
	rnd := NewHBM("hbm", 1, 1, 1e12, 1<<30, 0)
	rng := sim.NewRNG(9)
	for i := 0; i < 4096; i++ {
		addr := int64(rng.Intn(1<<20)) &^ 127
		rnd.Access(0, addr, 128, false)
	}
	if s, r := seq.RowHitRate(), rnd.RowHitRate(); s <= r || s < 0.8 {
		t.Errorf("row hit rates: sequential %.2f, random %.2f; want sequential high", s, r)
	}
}

func TestRowMissAddsLatencyNotBandwidth(t *testing.T) {
	h := NewHBM("hbm", 1, 1, 1e12, 1<<30, 0)
	// First touch of a row: miss penalty delays completion...
	missDone := h.Access(0, 0, 128, false)
	// ...but the channel horizon (bandwidth) only advanced by the
	// serialization time.
	ch := h.Channel(0)
	ser := sim.FromSeconds(128 / 1e12)
	if ch.BusyUntil() > ser+sim.Nanosecond {
		t.Errorf("row miss consumed bandwidth: busyUntil = %v, want ~%v", ch.BusyUntil(), ser)
	}
	if missDone <= ser {
		t.Errorf("row miss completion %v did not include the activation penalty", missDone)
	}
	// A re-access to the same row completes without the penalty.
	h.ResetStats()
	h.Access(0, 0, 128, false)
	hitDone := h.Access(h.Channel(0).BusyUntil(), 64, 128, false)
	_ = hitDone
	hits, _ := h.Channel(0).RowStats()
	if hits == 0 {
		t.Error("same-row re-access did not hit the open row")
	}
}

func TestRowStatsCount(t *testing.T) {
	h := NewHBM("hbm", 1, 1, 1e12, 1<<30, 0)
	h.Access(0, 0, 128, false)    // miss (opens row 0)
	h.Access(0, 256, 128, false)  // hit (row 0)
	h.Access(0, 2048, 128, false) // miss (row 2)
	hits, misses := h.Channel(0).RowStats()
	if hits != 1 || misses != 2 {
		t.Errorf("row stats = %d/%d, want 1 hit / 2 misses", hits, misses)
	}
}

// drainFreePages empties the package free list, so a test that fills it
// leaves the next test a fresh process's state.
func drainFreePages() {
	freePages.mu.Lock()
	defer freePages.mu.Unlock()
	freePages.list = nil
}

func TestSpaceReleasedPanicsOnAccess(t *testing.T) {
	t.Cleanup(drainFreePages)
	s := NewSpace("dev", 1<<30)
	s.WriteFloat64(8, 2.5)
	base, _ := s.Alloc(4096, 0)
	s.Release()
	s.Release() // a second Release does nothing
	if s.TouchedBytes() != pageSize || s.Allocated() != base+4096 {
		t.Errorf("after Release TouchedBytes = %d, Allocated = %d; want %d and %d", s.TouchedBytes(), s.Allocated(), pageSize, base+4096)
	}
	for name, access := range map[string]func(){
		"WriteFloat64":  func() { s.WriteFloat64(8, 1) },
		"Write":         func() { s.Write(1<<20, []byte{1}) },
		"WriteFloat64s": func() { s.WriteFloat64s(0, []float64{1}) },
		"ReadFloat64":   func() { s.ReadFloat64(8) },
	} {
		if !panics(access) {
			t.Errorf("%s on a released space did not panic", name)
		}
	}
	// A space built on the recycled page reads it as zero.
	fresh := NewSpace("dev", 1<<30)
	fresh.WriteUint32(0, 7)
	if got := fresh.ReadFloat64(8); got != 0 {
		t.Errorf("recycled page reads %g at 8, want 0", got)
	}
}

// TestFreePagesKeepAtMostTheCap releases more pages than freePagesCap and
// checks the free list kept exactly the cap.
func TestFreePagesKeepAtMostTheCap(t *testing.T) {
	drainFreePages()
	t.Cleanup(drainFreePages)
	const pages = freePagesCap + 40
	var spaces []*Space
	for i := 0; i < 4; i++ {
		s := NewSpace("dev", 1<<40)
		for p := int64(0); p < pages/4; p++ {
			s.WriteUint64(p<<pageBits, 1)
		}
		spaces = append(spaces, s)
	}
	for _, s := range spaces {
		s.Release()
	}
	freePages.mu.Lock()
	kept := len(freePages.list)
	freePages.mu.Unlock()
	if kept != freePagesCap {
		t.Errorf("released %d pages; free list keeps %d, want the cap, %d", pages, kept, freePagesCap)
	}
}
