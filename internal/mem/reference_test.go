package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refSpace is the original map-backed Space, kept verbatim as the
// executable spec the page directory is checked against, except that its
// bounds check and Alloc compare n against the room left, so that neither
// can wrap. It is obviously correct, and hashes its page number on every
// access.
type refSpace struct {
	name  string
	size  int64
	pages map[int64]*[pageSize]byte
	brk   int64 // bump allocator watermark
}

func newRefSpace(name string, size int64) *refSpace {
	if size <= 0 {
		panic(fmt.Sprintf("mem: invariant violated: address space %q needs a positive size (got %d)", name, size))
	}
	return &refSpace{name: name, size: size, pages: make(map[int64]*[pageSize]byte)}
}

func (s *refSpace) Allocated() int64 { return s.brk }

func (s *refSpace) TouchedBytes() int64 { return int64(len(s.pages)) * pageSize }

func (s *refSpace) Alloc(n int64, align int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: alloc of %d bytes", n)
	}
	if align <= 0 {
		align = 256
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	base := (s.brk + align - 1) &^ (align - 1)
	if base < 0 || n > s.size-base {
		return 0, fmt.Errorf("mem: %q out of memory: want %d at %d, size %d", s.name, n, base, s.size)
	}
	s.brk = base + n
	return base, nil
}

func (s *refSpace) check(addr, n int64) {
	if addr < 0 || n < 0 || n > s.size-addr {
		panic(fmt.Sprintf("mem: invariant violated: %q access [%d, %d) must stay inside the space (size %d)", s.name, addr, addr+n, s.size))
	}
}

func (s *refSpace) page(idx int64, create bool) *[pageSize]byte {
	p := s.pages[idx]
	if p == nil && create {
		p = new([pageSize]byte)
		s.pages[idx] = p
	}
	return p
}

func (s *refSpace) Write(addr int64, buf []byte) {
	s.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		idx := addr >> pageBits
		off := addr & (pageSize - 1)
		n := int64(pageSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		p := s.page(idx, true)
		copy(p[off:off+n], buf[:n])
		addr += n
		buf = buf[n:]
	}
}

func (s *refSpace) Read(addr int64, buf []byte) {
	s.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		idx := addr >> pageBits
		off := addr & (pageSize - 1)
		n := int64(pageSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if p := s.page(idx, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := int64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		addr += n
		buf = buf[n:]
	}
}

func (s *refSpace) WriteFloat64(addr int64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	s.Write(addr, b[:])
}

func (s *refSpace) ReadFloat64(addr int64) float64 {
	var b [8]byte
	s.Read(addr, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (s *refSpace) WriteUint64(addr int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

func (s *refSpace) ReadUint64(addr int64) uint64 {
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (s *refSpace) WriteUint32(addr int64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.Write(addr, b[:])
}

func (s *refSpace) ReadUint32(addr int64) uint32 {
	var b [4]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteFloat64s and ReadFloat64s are the specification of the bulk
// accessors the original Space did not have: the whole range is checked
// first, then one 8-byte access per element.
func (s *refSpace) WriteFloat64s(addr int64, src []float64) {
	s.check(addr, int64(len(src))*8)
	for i, v := range src {
		s.WriteFloat64(addr+8*int64(i), v)
	}
}

func (s *refSpace) ReadFloat64s(addr int64, dst []float64) {
	s.check(addr, int64(len(dst))*8)
	for i := range dst {
		dst[i] = s.ReadFloat64(addr + 8*int64(i))
	}
}

func refCopy(dst *refSpace, dstAddr int64, src *refSpace, srcAddr, n int64) {
	buf := make([]byte, 64*1024)
	for n > 0 {
		chunk := int64(len(buf))
		if chunk > n {
			chunk = n
		}
		src.Read(srcAddr, buf[:chunk])
		dst.Write(dstAddr, buf[:chunk])
		srcAddr += chunk
		dstAddr += chunk
		n -= chunk
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// progReader decodes a differential program; an exhausted program reads
// as zeros.
type progReader struct{ b []byte }

func (r *progReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// uint reads a little-endian unsigned integer of n bytes.
func (r *progReader) uint(n int) int64 {
	var v int64
	for i := 0; i < n; i++ {
		v |= int64(r.byte()) << (8 * i)
	}
	return v
}

// addr decodes an address for a space of the given size. Most land near
// page boundaries (low pages grow the directory a page at a time, the rest
// lie anywhere in the space), next to the previous address or at the end
// of the space, and some lie outside it.
func (r *progReader) addr(size, prev int64) int64 {
	delta := int64(int8(r.byte()))
	if delta&1 == 0 {
		delta >>= 4 // within eight bytes, where accessors straddle
	}
	switch r.byte() % 8 {
	case 0, 1:
		return r.uint(4)%(size>>pageBits+1)<<pageBits + delta
	case 2:
		return int64(r.byte()%16)<<pageBits + delta
	case 3:
		return size - 64 + delta
	case 4, 5:
		return r.uint(5) % size
	case 6:
		return prev + 8*delta
	default:
		return [...]int64{-1, size, math.MaxInt64 - 3, math.MinInt64}[r.byte()%4] + delta
	}
}

// length decodes an access length of up to three pages.
func (r *progReader) length() int64 {
	switch r.byte() % 4 {
	case 0:
		return int64(r.byte() % 17)
	case 1:
		return r.uint(2) % (pageSize + 1)
	default:
		return r.uint(3) % (3*pageSize + 1)
	}
}

// fill writes a deterministic nonzero pattern derived from seed into buf.
func fill(buf []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

func floats(n, seed int64) []float64 {
	b := make([]byte, 8*n)
	fill(b, seed)
	f := make([]float64, n)
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return f
}

// firstDiff returns the first i < n for which differs(i), or -1.
func firstDiff(n int, differs func(i int) bool) int {
	for i := 0; i < n; i++ {
		if differs(i) {
			return i
		}
	}
	return -1
}

// runDiff runs prog against two fresh Spaces and two refSpaces of the
// given size, and fails at the first divergence: a return value, a read
// buffer, whether the step panicked, or a space's Allocated or
// TouchedBytes. At the end every reference page must exist in the Space
// with the same bytes.
func runDiff(t *testing.T, size int64, prog []byte) {
	t.Helper()
	spaces := [2]*Space{NewSpace("a", size), NewSpace("b", size)}
	refs := [2]*refSpace{newRefSpace("a", size), newRefSpace("b", size)}
	r := &progReader{b: prog}
	var prev int64
	for step := 0; len(r.b) > 0; step++ {
		op, which := r.byte(), int(r.byte()&1)
		s, ref := spaces[which], refs[which]
		addr := r.addr(size, prev)
		prev = addr
		var name string
		var got, want any
		var gotPanic, wantPanic bool
		bufDiff := -1 // first element at which a read buffer differs
		switch op % 12 {
		case 0:
			name = "Write"
			buf := make([]byte, r.length())
			fill(buf, int64(step))
			gotPanic = panics(func() { s.Write(addr, buf) })
			wantPanic = panics(func() { ref.Write(addr, buf) })
		case 1:
			name = "Read"
			g, w := make([]byte, r.length()), []byte(nil)
			fill(g, -1)
			w = append(w, g...)
			gotPanic = panics(func() { s.Read(addr, g) })
			wantPanic = panics(func() { ref.Read(addr, w) })
			bufDiff = firstDiff(len(g), func(i int) bool { return g[i] != w[i] })
		case 2:
			name = "WriteFloat64"
			v := floats(1, int64(step))[0]
			gotPanic = panics(func() { s.WriteFloat64(addr, v) })
			wantPanic = panics(func() { ref.WriteFloat64(addr, v) })
		case 3:
			name = "ReadFloat64"
			var g, w float64
			gotPanic = panics(func() { g = s.ReadFloat64(addr) })
			wantPanic = panics(func() { w = ref.ReadFloat64(addr) })
			got, want = math.Float64bits(g), math.Float64bits(w)
		case 4:
			name = "WriteUint64"
			v := uint64(r.uint(8))
			gotPanic = panics(func() { s.WriteUint64(addr, v) })
			wantPanic = panics(func() { ref.WriteUint64(addr, v) })
		case 5:
			name = "ReadUint64"
			var g, w uint64
			gotPanic = panics(func() { g = s.ReadUint64(addr) })
			wantPanic = panics(func() { w = ref.ReadUint64(addr) })
			got, want = g, w
		case 6:
			name = "WriteUint32"
			v := uint32(r.uint(4))
			gotPanic = panics(func() { s.WriteUint32(addr, v) })
			wantPanic = panics(func() { ref.WriteUint32(addr, v) })
		case 7:
			name = "ReadUint32"
			var g, w uint32
			gotPanic = panics(func() { g = s.ReadUint32(addr) })
			wantPanic = panics(func() { w = ref.ReadUint32(addr) })
			got, want = g, w
		case 8:
			name = "WriteFloat64s"
			src := floats(r.length()/8, int64(step))
			gotPanic = panics(func() { s.WriteFloat64s(addr, src) })
			wantPanic = panics(func() { ref.WriteFloat64s(addr, src) })
		case 9:
			name = "ReadFloat64s"
			n := r.length() / 8
			g, w := floats(n, -1), floats(n, -1)
			gotPanic = panics(func() { s.ReadFloat64s(addr, g) })
			wantPanic = panics(func() { ref.ReadFloat64s(addr, w) })
			bufDiff = firstDiff(len(g), func(i int) bool { return math.Float64bits(g[i]) != math.Float64bits(w[i]) })
		case 10:
			name = "Alloc"
			n := r.uint(4)>>(r.byte()%32) - 16
			if r.byte()%8 == 0 { // base+n would wrap past math.MaxInt64
				n = math.MaxInt64 - n&0xffff
			}
			align := [...]int64{0, 1, 3, 8, 256, 4096, pageSize, -4}[r.byte()%8]
			gb, gerr := s.Alloc(n, align)
			wb, werr := ref.Alloc(n, align)
			got, want = fmt.Sprint(gb, gerr), fmt.Sprint(wb, werr)
		default:
			name = "Copy"
			n := r.length()
			if r.byte()&1 == 0 { // between the two spaces
				other := 1 - which
				src := r.addr(size, addr)
				gotPanic = panics(func() { Copy(spaces[other], addr, s, src, n) })
				wantPanic = panics(func() { refCopy(refs[other], addr, ref, src, n) })
			} else { // within one space; the ranges may overlap
				dst := addr + 8*int64(int8(r.byte())) + int64(r.byte()%8)
				gotPanic = panics(func() { Copy(s, dst, s, addr, n) })
				wantPanic = panics(func() { refCopy(ref, dst, ref, addr, n) })
			}
		}
		if gotPanic != wantPanic {
			t.Fatalf("size %d, step %d: %s(%#x) panicked = %v, reference %v", size, step, name, addr, gotPanic, wantPanic)
		}
		if got != want {
			t.Fatalf("size %d, step %d: %s(%#x) = %v, reference %v", size, step, name, addr, got, want)
		}
		if bufDiff >= 0 {
			t.Fatalf("size %d, step %d: %s(%#x) read buffer differs from the reference at element %d", size, step, name, addr, bufDiff)
		}
		for i := range spaces {
			if g, w := spaces[i].TouchedBytes(), refs[i].TouchedBytes(); g != w {
				t.Fatalf("size %d, step %d: after %s(%#x) space %d TouchedBytes = %d, reference %d", size, step, name, addr, i, g, w)
			}
			if g, w := spaces[i].Allocated(), refs[i].Allocated(); g != w {
				t.Fatalf("size %d, step %d: after %s(%#x) space %d Allocated = %d, reference %d", size, step, name, addr, i, g, w)
			}
		}
	}
	for i := range spaces {
		for idx, want := range refs[i].pages {
			got := spaces[i].page(idx, false)
			if got == nil || *got != *want {
				t.Fatalf("size %d: space %d page %d differs from the reference (committed %v)", size, i, idx, got != nil)
			}
		}
	}
}

// diffSizes are the differential spaces: a small one whose end falls
// mid-page, and a 128 GiB one whose addresses are far apart.
var diffSizes = [2]int64{5*pageSize + 777, 128 << 30}

func TestSpaceMatchesReference(t *testing.T) {
	for _, size := range diffSizes {
		for seed := int64(1); seed <= 8; seed++ {
			prog := make([]byte, 1500)
			rand.New(rand.NewSource(seed)).Read(prog)
			runDiff(t, size, prog)
		}
	}
}

func FuzzSpaceDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		// A step can commit up to four 64-KiB pages on each side, so
		// longer programs are skipped to bound memory.
		if len(prog) == 0 || len(prog) > 1024 {
			return
		}
		runDiff(t, diffSizes[prog[0]&1], prog[1:])
	})
}

// ---------------------------------------------------------------------------
// refHBM: the HBM timing model before the granule walk.
//
// refAddressMap, refChannel and refHBM keep the original address map,
// channel and AccessObserved verbatim as the executable spec: the map
// hashes each granule twice (Channel recomputes Stack) and divides by
// run-time granule, stack, channel, row and bank counts, and
// AccessObserved walks the range through GranuleSpan's callback.
// ---------------------------------------------------------------------------

type refAddressMap struct {
	Granule     int64
	Stacks      int
	Channels    int // per stack
	NUMADomains int
	Capacity    int64
}

func newRefAddressMap(granule int64, stacks, channelsPerStack int) *refAddressMap {
	return &refAddressMap{Granule: granule, Stacks: stacks, Channels: channelsPerStack, NUMADomains: 1}
}

// Stack reports which HBM stack the address belongs to.
func (m *refAddressMap) Stack(addr int64) int {
	g := uint64(addr) / uint64(m.Granule)
	if m.NUMADomains <= 1 {
		return int(hashGranule(g) % uint64(m.Stacks))
	}
	perDomain := m.Stacks / m.NUMADomains
	span := m.Capacity / int64(m.NUMADomains)
	if span <= 0 {
		span = 1
	}
	domain := int(addr / span)
	if domain >= m.NUMADomains {
		domain = m.NUMADomains - 1
	}
	return domain*perDomain + int(hashGranule(g)%uint64(perDomain))
}

// Channel reports the global channel index (stack*Channels + local) for the
// address.
func (m *refAddressMap) Channel(addr int64) int {
	g := uint64(addr) / uint64(m.Granule)
	stack := m.Stack(addr)
	local := int((hashGranule(g) >> 32) % uint64(m.Channels))
	return stack*m.Channels + local
}

// GranuleSpan calls fn for each (channel, bytes) chunk of the byte range
// [addr, addr+n), split at granule boundaries.
func (m *refAddressMap) GranuleSpan(addr, n int64, fn func(channel int, bytes int64)) {
	for n > 0 {
		inGranule := m.Granule - addr%m.Granule
		chunk := n
		if chunk > inGranule {
			chunk = inGranule
		}
		fn(m.Channel(addr), chunk)
		addr += chunk
		n -= chunk
	}
}

type refChannel struct {
	BW             float64
	Banks          int
	RowBytes       int64
	RowMissPenalty sim.Time

	openRows  []int64
	busyUntil sim.Time
	bytes     uint64
	reads     uint64
	writes    uint64
	rowHits   uint64
	rowMisses uint64
	retired   bool
	eccEvents uint64
}

func (c *refChannel) OccupyAt(start sim.Time, addr, nbytes int64, write bool) sim.Time {
	var penalty sim.Time
	if c.Banks > 0 && addr >= 0 && c.RowBytes > 0 {
		if c.openRows == nil {
			c.openRows = make([]int64, c.Banks)
			for i := range c.openRows {
				c.openRows[i] = -1
			}
		}
		row := addr / c.RowBytes
		bank := int(uint64(row) % uint64(c.Banks))
		if c.openRows[bank] == row {
			c.rowHits++
		} else {
			c.rowMisses++
			c.openRows[bank] = row
			penalty = c.RowMissPenalty
		}
	}
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end := start + sim.FromSeconds(float64(nbytes)/c.BW)
	c.busyUntil = end
	c.bytes += uint64(nbytes)
	if write {
		c.writes++
	} else {
		c.reads++
	}
	return end + penalty
}

type refHBM struct {
	Map        *refAddressMap
	Latency    sim.Time
	channels   []*refChannel
	eccRate    float64
	eccPenalty sim.Time
	eccRNG     *sim.RNG
	chunks     uint64
}

func newRefHBM(stacks, channelsPerStack int, stackBW float64, latency sim.Time) *refHBM {
	m := &refHBM{Map: newRefAddressMap(4096, stacks, channelsPerStack), Latency: latency}
	perChannel := stackBW / float64(channelsPerStack)
	for i := 0; i < stacks*channelsPerStack; i++ {
		m.channels = append(m.channels, &refChannel{
			BW: perChannel, Banks: 16, RowBytes: 1024, RowMissPenalty: 35 * sim.Nanosecond,
		})
	}
	return m
}

func (h *refHBM) liveChannel(ch int) int {
	for range h.channels {
		if !h.channels[ch].retired {
			return ch
		}
		ch = (ch + 1) % len(h.channels)
	}
	return ch
}

func (h *refHBM) AccessObserved(start sim.Time, addr, nbytes int64, write bool, obs AccessObserver) sim.Time {
	if nbytes <= 0 {
		return start
	}
	end := start
	pos := addr
	h.Map.GranuleSpan(addr, nbytes, func(ch int, chunk int64) {
		served := h.liveChannel(ch)
		c := h.channels[served]
		h.chunks++
		issue := start + h.Latency
		done := c.OccupyAt(issue, pos, chunk, write)
		if obs != nil {
			obs(ch, served, issue, done, false)
		}
		if h.eccRate > 0 && h.eccRNG != nil && h.eccRNG.Float64() < h.eccRate {
			c.eccEvents++
			retryAt := done + h.eccPenalty
			done = c.OccupyAt(retryAt, pos, chunk, write)
			if obs != nil {
				obs(ch, served, retryAt, done, true)
			}
		}
		pos += chunk
		if done > end {
			end = done
		}
	})
	return end
}

func TestGranuleSpanSplits(t *testing.T) {
	m := newRefAddressMap(4096, 8, 16)
	var total int64
	var chunks int
	m.GranuleSpan(4000, 10000, func(ch int, n int64) {
		total += n
		chunks++
		if n > 4096 {
			t.Errorf("chunk %d exceeds granule", n)
		}
	})
	if total != 10000 {
		t.Errorf("GranuleSpan total = %d, want 10000", total)
	}
	if chunks != 4 { // 96 + 4096 + 4096 + 1712
		t.Errorf("chunks = %d, want 4", chunks)
	}
}

// occupancy is one AccessObserver callback.
type occupancy struct {
	hashed, served int
	start, end     sim.Time
	retry          bool
}

// hbmScenario is one device configuration of the HBM differential test.
type hbmScenario struct {
	stacks, channels int
	nps              int     // NUMA domains
	retire           []int   // channels mapped out, in order
	eccRate          float64 // 0 disables the ECC storm
}

// checkHBMAgainstRef runs accesses against an HBM and a refHBM configured
// as sc, and fails at the first difference in a returned time, an
// observer callback, a channel's counters or horizon, or ChunksIssued.
func checkHBMAgainstRef(t *testing.T, sc hbmScenario, seed int64, accesses int) {
	t.Helper()
	const capacity = 4 << 30
	h := NewHBM("hbm", sc.stacks, sc.channels, 1e12, capacity, 100*sim.Nanosecond)
	ref := newRefHBM(sc.stacks, sc.channels, 1e12, 100*sim.Nanosecond)
	if sc.nps > 1 {
		if err := h.SetNUMADomains(sc.nps); err != nil {
			t.Fatal(err)
		}
		ref.Map.NUMADomains, ref.Map.Capacity = sc.nps, capacity
	}
	for _, ch := range sc.retire {
		if err := h.RetireChannel(ch); err != nil {
			t.Fatal(err)
		}
		ref.channels[ch].retired = true
	}
	if sc.eccRate > 0 {
		if err := h.SetECCStorm(sc.eccRate, 400*sim.Nanosecond, uint64(seed)); err != nil {
			t.Fatal(err)
		}
		ref.eccRate, ref.eccPenalty, ref.eccRNG = sc.eccRate, 400*sim.Nanosecond, sim.NewRNG(uint64(seed))
	}
	rng := rand.New(rand.NewSource(seed))
	var got, want []occupancy
	record := func(log *[]occupancy) AccessObserver {
		return func(hashed, served int, s, e sim.Time, retry bool) {
			*log = append(*log, occupancy{hashed, served, s, e, retry})
		}
	}
	var at sim.Time
	for i := 0; i < accesses; i++ {
		// Lengths from 1 B to 4 MiB, log-uniform; addresses unaligned,
		// sometimes just short of a granule boundary so one byte
		// straddles it.
		n := int64(1) << rng.Intn(23)
		n += rng.Int63n(n)
		addr := rng.Int63n(capacity - n)
		if rng.Intn(4) == 0 {
			addr = addr&^4095 + 4095
		}
		write := rng.Intn(3) == 0
		at += sim.Time(rng.Int63n(int64(2 * sim.Microsecond)))
		got, want = got[:0], want[:0]
		var obs, refObs AccessObserver
		if rng.Intn(2) == 0 {
			obs, refObs = record(&got), record(&want)
		}
		end := h.AccessObserved(at, addr, n, write, obs)
		refEnd := ref.AccessObserved(at, addr, n, write, refObs)
		where := fmt.Sprintf("%+v seed %d, access %d [%d, +%d)", sc, seed, i, addr, n)
		if end != refEnd {
			t.Fatalf("%s: AccessObserved = %v, reference %v", where, end, refEnd)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d observer callbacks, reference %d", where, len(got), len(want))
		}
		if j := firstDiff(len(got), func(j int) bool { return got[j] != want[j] }); j >= 0 {
			t.Fatalf("%s: callback %d = %+v, reference %+v", where, j, got[j], want[j])
		}
		if h.ChunksIssued() != ref.chunks {
			t.Fatalf("%s: ChunksIssued = %d, reference %d", where, h.ChunksIssued(), ref.chunks)
		}
		for ch, c := range h.Channels() {
			rc := ref.channels[ch]
			r, w := c.Counts()
			hits, misses := c.RowStats()
			if c.BytesMoved() != rc.bytes || r != rc.reads || w != rc.writes ||
				hits != rc.rowHits || misses != rc.rowMisses ||
				c.BusyUntil() != rc.busyUntil || c.ECCEvents() != rc.eccEvents {
				t.Fatalf("%s: channel %d diverges: bytes %d/%d reads %d/%d writes %d/%d row hits %d/%d misses %d/%d busy %v/%v ecc %d/%d",
					where, ch, c.BytesMoved(), rc.bytes, r, rc.reads, w, rc.writes,
					hits, rc.rowHits, misses, rc.rowMisses, c.BusyUntil(), rc.busyUntil, c.ECCEvents(), rc.eccEvents)
			}
		}
	}
	// The address map answers like the reference everywhere, negative
	// addresses included.
	for i := 0; i < 2000; i++ {
		addr := rng.Int63() - rng.Int63()
		if h.Map.Stack(addr) != ref.Map.Stack(addr) || h.Map.Channel(addr) != ref.Map.Channel(addr) {
			t.Fatalf("%+v: address %d maps to stack %d channel %d, reference stack %d channel %d", sc, addr,
				h.Map.Stack(addr), h.Map.Channel(addr), ref.Map.Stack(addr), ref.Map.Channel(addr))
		}
	}
}

// TestHBMMatchesReference covers the MI300A's 8×16 geometry, 8×8, the
// 5-stack part and the 12-channel DDR (whose counts take the modulo
// path), NPS1 and NPS4, retired channels whose redirect wraps around the
// channel list, and an ECC storm.
func TestHBMMatchesReference(t *testing.T) {
	var scenarios []hbmScenario
	for _, g := range [][2]int{{8, 16}, {8, 8}, {5, 8}, {1, 12}} {
		total := g[0] * g[1]
		base := hbmScenario{stacks: g[0], channels: g[1], nps: 1}
		retired := base
		// Retiring the last channels makes their redirect wrap to 0.
		retired.retire = []int{total - 1, total - 2, total / 2, 1}
		storm := retired
		storm.eccRate = 0.3
		scenarios = append(scenarios, base, retired, storm)
		if g[0]%4 == 0 {
			nps := storm
			nps.nps = 4
			scenarios = append(scenarios, nps)
		}
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 2; seed++ {
			checkHBMAgainstRef(t, sc, seed, 150)
		}
	}
}

func TestHBMNegativeAddressPanics(t *testing.T) {
	h := NewHBM("hbm", 8, 16, 1e12, 1<<30, 0)
	if !panics(func() { h.Access(0, -1, 64, false) }) {
		t.Fatal("an access at a negative address did not panic")
	}
	if h.ChunksIssued() != 0 || h.BytesMoved() != 0 {
		t.Fatal("a refused access moved bytes")
	}
}

func TestAddressMapGranuleMustBePowerOfTwo(t *testing.T) {
	if !panics(func() { NewAddressMap(3000, 8, 16) }) {
		t.Fatal("a 3000-byte granule was accepted")
	}
}
