package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

type refLine struct {
	tag        int64
	valid      bool
	dirty      bool
	prefetched bool
}

// refSetAssoc is the original SetAssoc, kept verbatim as the executable
// spec the arena-backed tag store is checked against: one append-grown
// slice of lines per set, ordered most-recent-first. It is obviously
// correct, and costs a 24-byte slice header per set before any access.
type refSetAssoc struct {
	Name     string
	LineSize int64
	Ways     int
	Sets     int
	stats    Stats
	// sets[s] holds up to Ways lines ordered most-recent-first.
	sets [][]refLine
}

// newRefSetAssoc builds a cache of the given total size. Size must be a
// multiple of lineSize×ways and the set count must be a power of two.
func newRefSetAssoc(name string, size, lineSize int64, ways int) *refSetAssoc {
	if size <= 0 || lineSize <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invariant violated: geometry must be positive (size=%d line=%d ways=%d)", size, lineSize, ways))
	}
	lines := size / lineSize
	sets := int(lines) / ways
	if sets == 0 || int64(sets*ways)*lineSize != size {
		panic(fmt.Sprintf("cache: invariant violated: %s size %d must divide evenly into %d-way sets of %d-byte lines", name, size, ways, lineSize))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: invariant violated: %s set count %d must be a power of two for index masking", name, sets))
	}
	c := &refSetAssoc{Name: name, LineSize: lineSize, Ways: ways, Sets: sets}
	c.sets = make([][]refLine, sets)
	return c
}

// Size reports total capacity in bytes.
func (c *refSetAssoc) Size() int64 { return int64(c.Sets*c.Ways) * c.LineSize }

// Stats returns a copy of the counters.
func (c *refSetAssoc) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without flushing contents.
func (c *refSetAssoc) ResetStats() { c.stats = Stats{} }

func (c *refSetAssoc) index(addr int64) (set int, tag int64) {
	lineAddr := addr / c.LineSize
	return int(lineAddr) & (c.Sets - 1), lineAddr
}

// Access looks up the line containing addr, filling on miss, and returns
// what happened. write marks the line dirty.
func (c *refSetAssoc) Access(addr int64, write bool) Result {
	set, tag := c.index(addr)
	s := c.sets[set]
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			// Hit: move to front (MRU).
			ln := s[i]
			if ln.prefetched {
				c.stats.PrefHits++
				ln.prefetched = false
			}
			if write {
				ln.dirty = true
			}
			copy(s[1:i+1], s[:i])
			s[0] = ln
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	return c.fill(set, tag, write, false)
}

// fill inserts a line at MRU, evicting LRU if the set is full.
func (c *refSetAssoc) fill(set int, tag int64, dirty, prefetched bool) Result {
	s := c.sets[set]
	var res Result
	if len(s) < c.Ways {
		s = append(s, refLine{})
		copy(s[1:], s[:len(s)-1])
	} else {
		victim := s[len(s)-1]
		if victim.valid {
			res.Evicted = true
			c.stats.Evictions++
			if victim.dirty {
				res.Writeback = true
				res.WritebackAddr = victim.tag * c.LineSize
				c.stats.Writebacks++
			}
		}
		copy(s[1:], s[:len(s)-1])
	}
	s[0] = refLine{tag: tag, valid: true, dirty: dirty, prefetched: prefetched}
	c.sets[set] = s
	return res
}

// Contains reports whether addr's line is present (no LRU update).
func (c *refSetAssoc) Contains(addr int64) bool {
	set, tag := c.index(addr)
	for _, ln := range c.sets[set] {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Prefetch inserts addr's line if absent, marking it prefetched. It
// reports whether a fill actually happened.
func (c *refSetAssoc) Prefetch(addr int64) bool {
	if c.Contains(addr) {
		return false
	}
	set, tag := c.index(addr)
	c.fill(set, tag, false, true)
	c.stats.Prefetches++
	return true
}

// Invalidate drops addr's line, reporting whether it was present and dirty.
func (c *refSetAssoc) Invalidate(addr int64) (present, dirty bool) {
	set, tag := c.index(addr)
	s := c.sets[set]
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			present, dirty = true, s[i].dirty
			copy(s[i:], s[i+1:])
			c.sets[set] = s[:len(s)-1]
			return
		}
	}
	return
}

// Flush invalidates everything, returning the number of dirty lines that
// would be written back.
func (c *refSetAssoc) Flush() (writebacks int) {
	for i := range c.sets {
		for _, ln := range c.sets[i] {
			if ln.valid && ln.dirty {
				writebacks++
			}
		}
		c.sets[i] = nil
	}
	return
}

// Occupancy reports the number of valid lines.
func (c *refSetAssoc) Occupancy() int {
	var n int
	for _, s := range c.sets {
		for _, ln := range s {
			if ln.valid {
				n++
			}
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Differential test: SetAssoc vs refSetAssoc.
//
// One interpreter turns a byte program into a sequence of cache calls and
// runs it against both implementations, comparing every return value and
// the Stats after every step. Addresses come from a few hot sets and
// small tag ranges so that sets fill, evict and alias, with negative and
// extreme addresses mixed in.
// ---------------------------------------------------------------------------

type geometry struct {
	sets, ways int
	lineSize   int64
}

func (g geometry) String() string {
	return fmt.Sprintf("%d sets × %d ways × %d B", g.sets, g.ways, g.lineSize)
}

// geometryOf decodes a fuzz program's first byte. Line sizes include one
// that is not a power of two (96), which takes index's divide path.
func geometryOf(b byte) geometry {
	return geometry{
		ways:     [...]int{1, 2, 8, 16}[b&3],
		sets:     1 << (int(b>>2&0xf) % 11),
		lineSize: [...]int64{64, 128, 96, 1}[b>>6],
	}
}

// opAddr decodes an address from two program bytes: a set (one of four
// hot sets, or any set), a small signed tag, optionally offset by a far
// alias, plus a byte offset inside the line. Three values of b2 pick
// extreme addresses instead: the ends of the address space, and just
// below 2^61, where a one-set cache of one-byte lines stops tagging.
func opAddr(g geometry, b1, b2 byte) int64 {
	switch b2 {
	case 0xff:
		return math.MinInt64 + int64(b1)
	case 0xfe:
		return math.MaxInt64 - int64(b1)
	case 0xfd:
		return 1<<61 - int64(b1)
	}
	set := int64(b1) % int64(g.sets)
	if b2&0x40 != 0 {
		set &= 3
	}
	tag := int64(b2&0x1f) - 8
	if b2&0x20 != 0 {
		tag += 1 << 30
	}
	return (tag*int64(g.sets)+set)*g.lineSize + int64(b1^b2)%g.lineSize
}

// refPrefetch runs ref.Prefetch and derives the Result SetAssoc.Prefetch
// must return from the line the reference's fill displaced.
func refPrefetch(ref *refSetAssoc, addr int64) Result {
	set, _ := ref.index(addr)
	s := ref.sets[set]
	full := len(s) == ref.Ways
	var victim refLine
	if full {
		victim = s[len(s)-1]
	}
	if !ref.Prefetch(addr) {
		return Result{Hit: true}
	}
	res := Result{Evicted: full}
	if full && victim.dirty {
		res.Writeback, res.WritebackAddr = true, victim.tag*ref.LineSize
	}
	return res
}

// taggable reports whether SetAssoc can tag addr in geometry g: the line
// address without its set-index bits must fit in 62 bits. Only caches
// with fewer than four bytes of line across all sets have addresses that
// do not.
func taggable(g geometry, addr int64) bool {
	tag := addr / g.lineSize >> bits.TrailingZeros(uint(g.sets))
	return tag >= -1<<61 && tag < 1<<61
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// rangeLen decodes a ReadRange length from the low four bits of an op
// byte: from nothing through a line and one line per set up to three
// times the cache, aligned and not. The lengths that scale with the
// cache stop growing at 16 KiB, which keeps the reference's per-line
// loop cheap on the largest geometries; caches up to that size are
// still read around three times.
func rangeLen(g geometry, b byte) int64 {
	size := min(int64(g.sets*g.ways)*g.lineSize, 16<<10)
	span := min(int64(g.sets)*g.lineSize, 16<<10)
	return [16]int64{
		-5, 0, 1, g.lineSize - 1, g.lineSize, g.lineSize + 1, 3*g.lineSize + 5, int64(g.ways) * g.lineSize,
		span, span + g.lineSize/2 + 1, 2*span - 1, size/2 + 7, size, size + 3*g.lineSize, 2*size - 1, 3 * size,
	}[b&15]
}

// refReadRange is the spec of SetAssoc.ReadRange: one reference read per
// line, for the lines at addr, addr+LineSize, ... below addr+n.
func refReadRange(ref *refSetAssoc, addr, n int64) (misses int) {
	for off := int64(0); off < n; off += ref.LineSize {
		if !ref.Access(addr+off, false).Hit {
			misses++
		}
	}
	return misses
}

// untaggableLine returns a line of the ReadRange [addr, addr+n) that
// SetAssoc cannot tag, if there is one. Tags grow with addresses, so
// the first and last lines are the ones to check.
func untaggableLine(g geometry, addr, n int64) (int64, bool) {
	if n <= 0 {
		return 0, false
	}
	last := addr + (n-1)/g.lineSize*g.lineSize
	for _, a := range [2]int64{addr, last} {
		if !taggable(g, a) {
			return a, true
		}
	}
	return 0, false
}

// releaseOp is the op byte that releases the cache and goes on with a new
// one of the same geometry, built on the released storage, against a
// fresh reference.
const releaseOp = 0xdf

// lapOp is the op byte that reads a lap-aligned range; see lapRange.
const lapOp = 0xde

// lapRange decodes the range of a lapOp step from its two other bytes. A
// lap is one line per set. The range covers 1 to 2×Ways whole laps from
// the set-0 line that starts lap b2&7, at one of four byte offsets inside
// that line. Bit 3 of b2 trims the tail to the last line's first byte,
// which reads the same lines. Bit 4 shifts the range one line up and bit
// 5 makes it one line short: either takes it off the shared row's path.
func lapRange(g geometry, b1, b2 byte) (addr, n int64) {
	lap := int64(g.sets) * g.lineSize
	laps := 1 + int64(b1)%int64(2*g.ways)
	addr = int64(b2&7)*lap + int64(b2>>6)*g.lineSize/4
	n = laps * lap
	if b2&8 != 0 {
		n -= g.lineSize - 1
	}
	if b2&16 != 0 {
		addr += g.lineSize
	}
	if b2&32 != 0 {
		n -= g.lineSize
	}
	return addr, n
}

// differ runs a program against a SetAssoc and a refSetAssoc of one
// geometry, three bytes per step, and fails the test at the first
// divergence.
type differ struct {
	t                 *testing.T
	g                 geometry
	c                 *SetAssoc
	ref               *refSetAssoc
	step              int
	lastAddr, lastLen int64
}

func newDiffer(t *testing.T, g geometry) *differ {
	d := &differ{t: t, g: g}
	d.reset()
	return d
}

// reset goes on with a fresh cache and reference.
func (d *differ) reset() {
	size := int64(d.g.sets*d.g.ways) * d.g.lineSize
	d.c = NewSetAssoc("diff", size, d.g.lineSize, d.g.ways)
	d.ref = newRefSetAssoc("diff", size, d.g.lineSize, d.g.ways)
}

// run runs prog, step by step.
func (d *differ) run(prog []byte) {
	d.t.Helper()
	for i := 0; i+3 <= len(prog); i += 3 {
		d.do(prog[i], prog[i+1], prog[i+2])
	}
}

// do runs one step. A step on an address SetAssoc cannot tag must panic
// and is skipped on both, as must a ReadRange that holds such an address
// or wraps past the largest address. An op byte of 0xe0 or more is a
// ReadRange: bit 4 repeats the previous range, and the low four bits pick
// the length. lapOp reads a lap-aligned range, and releaseOp recycles the
// cache.
func (d *differ) do(opByte, b1, b2 byte) {
	t, g, c, ref := d.t, d.g, d.c, d.ref
	t.Helper()
	step := d.step
	d.step++
	op, addr := opByte%64, opAddr(g, b1, b2)
	if opByte == releaseOp {
		c.Release()
		if taggable(g, addr) && !panics(func() { c.Access(addr, false) }) {
			t.Fatalf("%v, step %d: a released cache took a fill", g, step)
		}
		if !panics(func() { c.ReadRange(0, int64(g.sets)*g.lineSize) }) || c.Occupancy() != 0 {
			t.Fatalf("%v, step %d: a released cache took a lap read or still holds lines", g, step)
		}
		d.reset()
		return
	}
	if opByte >= 0xe0 || opByte == lapOp {
		var n int64
		switch {
		case opByte == lapOp:
			addr, n = lapRange(g, b1, b2)
		case opByte&0x10 != 0:
			addr, n = d.lastAddr, d.lastLen
		default:
			n = rangeLen(g, opByte)
		}
		d.lastAddr, d.lastLen = addr, n
		before := c.Stats()
		bad, untaggable := untaggableLine(g, addr, n)
		if untaggable || (n > 0 && addr > math.MaxInt64-n) {
			if !panics(func() { c.ReadRange(addr, n) }) {
				t.Fatalf("%v, step %d: ReadRange(%#x, %d) over an untaggable or wrapping range did not panic", g, step, addr, n)
			}
			if untaggable && !panics(func() { c.Access(bad, false) }) {
				t.Fatalf("%v, step %d: Access(%#x) of an untaggable line did not panic", g, step, bad)
			}
			if c.Stats() != before {
				t.Fatalf("%v, step %d: a refused ReadRange(%#x, %d) changed Stats", g, step, addr, n)
			}
			return
		}
		if got, want := c.ReadRange(addr, n), refReadRange(ref, addr, n); got != want {
			t.Fatalf("%v, step %d: ReadRange(%#x, %d) = %d misses, reference %d", g, step, addr, n, got, want)
		}
		if gs, ws := c.Stats(), ref.Stats(); gs != ws {
			t.Fatalf("%v, step %d: after ReadRange(%#x, %d) Stats = %+v, reference %+v", g, step, addr, n, gs, ws)
		}
		return
	}
	if op < 60 && !taggable(g, addr) {
		if g.lineSize*int64(g.sets) >= 4 {
			t.Fatalf("%v: address %#x untaggable in a cache with at least four bytes of line across its sets", g, addr)
		}
		if !panics(func() { c.Access(addr, false) }) || !panics(func() { c.Prefetch(addr) }) ||
			!panics(func() { c.Contains(addr) }) || !panics(func() { c.Invalidate(addr) }) {
			t.Fatalf("%v, step %d: address %#x cannot be tagged but did not panic", g, step, addr)
		}
		return
	}
	var name string
	var got, want any
	switch {
	case op < 30:
		name, got, want = "Access(read)", c.Access(addr, false), ref.Access(addr, false)
	case op < 42:
		name, got, want = "Access(write)", c.Access(addr, true), ref.Access(addr, true)
	case op < 50:
		name, got, want = "Prefetch", c.Prefetch(addr), refPrefetch(ref, addr)
	case op < 56:
		name, got, want = "Contains", c.Contains(addr), ref.Contains(addr)
	case op < 60:
		name = "Invalidate"
		gp, gd := c.Invalidate(addr)
		wp, wd := ref.Invalidate(addr)
		got, want = [2]bool{gp, gd}, [2]bool{wp, wd}
	case op < 62:
		name, got, want = "Occupancy", c.Occupancy(), ref.Occupancy()
	case op < 63:
		name, got, want = "Flush", c.Flush(), ref.Flush()
	default:
		name = "ResetStats"
		c.ResetStats()
		ref.ResetStats()
	}
	if got != want {
		t.Fatalf("%v, step %d: %s(%#x) = %+v, reference %+v", g, step, name, addr, got, want)
	}
	if gs, ws := c.Stats(), ref.Stats(); gs != ws {
		t.Fatalf("%v, step %d: after %s(%#x) Stats = %+v, reference %+v", g, step, name, addr, gs, ws)
	}
}

// sameLines fails the test unless every set of the cache holds the lines
// the reference's does, in the same order and the same states.
func (d *differ) sameLines() {
	t, g, c := d.t, d.g, d.c
	t.Helper()
	shift := bits.TrailingZeros(uint(g.sets))
	for s, want := range d.ref.sets {
		keys := c.row()
		if keys == nil {
			keys = c.keys(s)
		}
		valid := 0
		for valid < len(keys) && keys[valid]&stateMask != invalid {
			valid++
		}
		if valid != len(want) {
			t.Fatalf("%v, after step %d: set %d holds %d lines, reference %d", g, d.step, s, valid, len(want))
		}
		for i, ln := range want {
			state := cleanLine
			if ln.prefetched {
				state = prefetchedLine
			} else if ln.dirty {
				state = dirtyLine
			}
			if key := keys[i]; key>>2 != ln.tag>>shift || key&stateMask != state {
				t.Fatalf("%v, after step %d: set %d way %d holds tag %d state %d, reference tag %d state %d",
					g, d.step, s, i, key>>2, key&stateMask, ln.tag>>shift, state)
			}
		}
	}
}

// runDiff runs prog against a fresh SetAssoc and refSetAssoc of geometry
// g (see differ.do), then compares their lines.
func runDiff(t *testing.T, g geometry, prog []byte) {
	t.Helper()
	d := newDiffer(t, g)
	d.run(prog)
	d.sameLines()
}

func TestSetAssocMatchesReference(t *testing.T) {
	var geoms []geometry
	for _, ways := range []int{1, 2, 8, 16} {
		for _, sets := range []int{1, 2, 16, 128, 1024} {
			for _, lineSize := range []int64{64, 128} {
				geoms = append(geoms, geometry{sets: sets, ways: ways, lineSize: lineSize})
			}
		}
	}
	// A line size that is not a power of two takes locate's divide path;
	// one-byte lines in one or two sets leave some addresses untaggable.
	geoms = append(geoms, geometry{4, 2, 96}, geometry{1, 8, 1}, geometry{2, 2, 1})
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			prog := make([]byte, 3*4000)
			rand.New(rand.NewSource(seed)).Read(prog)
			runDiff(t, g, prog)
		}
	}
}

// lapStep is the program step that reads laps whole laps from the set-0
// line of lap start (below 8), with lapRange's variant bits.
func lapStep(start, laps, variant byte) []byte {
	return []byte{lapOp, laps - 1, start | variant}
}

// rowOpening is the start of every shared-row program: lap-aligned reads
// on a fresh cache of ways ways, each of which keeps the row. The first
// makes it, and its repeat finds its lines at the front; the reads that
// overlap what the row holds go line by line; a read of twice the
// cache, first over held lines and then after a Flush over none, evicts;
// and the trimmed tile reads the same lines as the untrimmed one.
func rowOpening(ways int) []byte {
	w := byte(ways)
	return slices.Concat(
		lapStep(0, 1, 0),
		[]byte{0xf0, 0, 0}, // repeat the previous range
		lapStep(0, w, 0),
		[]byte{0xf0, 0, 0},
		lapStep(4, 2, 0),
		lapStep(2, 2*w, 0),
		[]byte{0x32, 0xff, 8 + 2}, // Contains of lap 2's line in the last set
		[]byte{0x3c, 0, 0},        // Occupancy
		[]byte{0x3e, 0, 0},        // Flush
		[]byte{0x3c, 0, 0},
		lapStep(1, 2*w, 0),
		lapStep(5, w/2+1, 0),
		lapStep(5, w/2+1, 8),
		[]byte{0x3f, 0, 0}, // ResetStats
		[]byte{0x32, 3, 8 + 5},
		[]byte{0x32, 3, 8 + 4},
		[]byte{0x3c, 0, 0},
	)
}

// rowProbes are the steps that meet the shared row after rowOpening: each
// fills, splits or releases the row, or reads or flushes it in place.
var rowProbes = []struct {
	name string
	step []byte
}{
	{"Access(read)", []byte{0x00, 3, 8 + 5}},
	{"Access(write)", []byte{0x1e, 3, 8 + 5}},
	{"Prefetch", []byte{0x2a, 3, 8 + 23}},
	{"Invalidate", []byte{0x38, 3, 8 + 5}},
	{"Contains", []byte{0x32, 0, 8 + 23}},
	{"Occupancy", []byte{0x3c, 0, 0}},
	{"Flush", []byte{0x3e, 0, 0}},
	{"ReadRange(one line up)", []byte{lapOp, 0, 5 | 16}},
	{"ReadRange(one line short)", []byte{lapOp, 0, 5 | 32}},
	{"ReadRange(few lines)", []byte{0xe6, 3, 8 + 5}},
	{"ReadRange(negative)", []byte{0xe6, 3, 0}},
	{"Release", []byte{releaseOp, 3, 8 + 5}},
}

// TestSetAssocSharedRowMatchesReference checks the shared row against the
// reference on several geometries, the XCD L2's among them. Each program
// opens with rowOpening, which must leave the row in place, meets the row
// with one of rowProbes, runs lap-aligned reads again, and goes on with
// random steps. Every return value and the Stats are compared after every
// step, and every set's lines after each step up to the random ones and
// at the end.
func TestSetAssocSharedRowMatchesReference(t *testing.T) {
	geoms := []geometry{{2048, 16, 128}, {1, 4, 64}, {16, 2, 64}, {128, 8, 128}, {8, 1, 1}}
	for _, g := range geoms {
		for i, probe := range rowProbes {
			t.Run(fmt.Sprintf("%v/%s", g, probe.name), func(t *testing.T) {
				d := newDiffer(t, g)
				script := func(prog []byte) {
					t.Helper()
					for i := 0; i+3 <= len(prog); i += 3 {
						d.do(prog[i], prog[i+1], prog[i+2])
						d.sameLines()
					}
				}
				script(rowOpening(g.ways))
				if d.c.row() == nil {
					t.Fatalf("%v: the lap-aligned opening left no shared row", g)
				}
				script(slices.Concat(probe.step,
					[]byte{0x3c, 0, 0, 0x32, 0, 8 + 5, 0x32, 1, 8 + 6},
					lapStep(5, 1, 0), lapStep(6, 2*byte(g.ways), 0), []byte{0x3c, 0, 0}))
				tail := make([]byte, 3*600)
				rand.New(rand.NewSource(int64(i))).Read(tail)
				d.run(tail)
				d.sameLines()
			})
		}
	}
}

func FuzzSetAssocDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		runDiff(t, geometryOf(prog[0]), prog[1:])
	})
}

// eagerInfinityCache is the Infinity Cache that built every slice in its
// constructor, with each slice's stream detector and port horizon in
// per-cache slices, kept (its comments trimmed) as the spec the lazily
// built one is checked against.
type eagerInfinityCache struct {
	slices     []*SetAssoc
	sliceBW    float64
	hitLatency sim.Time
	prefetch   bool
	streams    []int64
	busyUntil  []sim.Time
	lineSize   int64
	accesses   uint64
}

func newEagerInfinityCache(slices int, sliceBytes int64, totalBW float64, hitLatency sim.Time, prefetch bool) *eagerInfinityCache {
	if slices <= 0 {
		panic(fmt.Sprintf("cache: invariant violated: an Infinity Cache needs at least one slice (got %d)", slices))
	}
	const lineSize = 128
	ic := &eagerInfinityCache{
		sliceBW:    totalBW / float64(slices),
		hitLatency: hitLatency,
		prefetch:   prefetch,
		streams:    make([]int64, slices),
		busyUntil:  make([]sim.Time, slices),
		lineSize:   lineSize,
	}
	for i := 0; i < slices; i++ {
		ic.slices = append(ic.slices, NewSetAssoc(fmt.Sprintf("mall%d", i), sliceBytes, lineSize, 16))
	}
	for i := range ic.streams {
		ic.streams[i] = -1
	}
	return ic
}

func (ic *eagerInfinityCache) Slices() int { return len(ic.slices) }

func (ic *eagerInfinityCache) TotalBytes() int64 {
	return int64(len(ic.slices)) * ic.slices[0].Size()
}

func (ic *eagerInfinityCache) Stats() Stats {
	var s Stats
	for _, sl := range ic.slices {
		st := sl.Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Evictions += st.Evictions
		s.Writebacks += st.Writebacks
		s.Prefetches += st.Prefetches
		s.PrefHits += st.PrefHits
	}
	return s
}

func (ic *eagerInfinityCache) Access(start sim.Time, ch int, addr, nbytes int64, write bool) AccessResult {
	if ch < 0 || ch >= len(ic.slices) {
		panic(fmt.Sprintf("cache: invariant violated: slice index %d outside [0, %d) — the interleave hash must stay in range", ch, len(ic.slices)))
	}
	ic.accesses++
	sl := ic.slices[ch]
	res := sl.Access(addr, write)

	begin := start + ic.hitLatency
	if ic.busyUntil[ch] > begin {
		begin = ic.busyUntil[ch]
	}
	done := begin + sim.FromSeconds(float64(nbytes)/ic.sliceBW)
	ic.busyUntil[ch] = done

	out := AccessResult{Hit: res.Hit, Done: done, Begin: begin}
	if !res.Hit {
		out.HBMBytes = ic.lineSize
		if res.Writeback {
			out.HBMBytes += ic.lineSize
		}
	}
	if ic.prefetch {
		lineAddr := addr / ic.lineSize
		if ic.streams[ch] == lineAddr-1 || ic.streams[ch] == lineAddr {
			if pr := sl.Prefetch((lineAddr + 1) * ic.lineSize); !pr.Hit {
				out.HBMBytes += ic.lineSize
				if pr.Writeback {
					out.HBMBytes += ic.lineSize
				}
			}
		}
		ic.streams[ch] = lineAddr
	}
	return out
}

func (ic *eagerInfinityCache) Accesses() uint64 { return ic.accesses }

func (ic *eagerInfinityCache) ResetStats() {
	for i, sl := range ic.slices {
		sl.ResetStats()
		ic.busyUntil[i] = 0
	}
	ic.accesses = 0
}

// TestInfinityCacheMatchesEager drives the lazily built Infinity Cache and
// the eager one through the same random histories, with the prefetcher on
// and off: accesses on random channels, at addresses that mostly stream
// line by line and sometimes jump, reads and writes, and an occasional
// ResetStats. Every AccessResult, and the Stats and Accesses after every
// step, must match; so must the geometry the two report.
func TestInfinityCacheMatchesEager(t *testing.T) {
	for _, slices := range []int{1, 4, 128} {
		for _, sliceBytes := range []int64{16 << 10, 2 << 20} {
			for _, prefetch := range []bool{false, true} {
				for seed := int64(0); seed < 4; seed++ {
					name := fmt.Sprintf("slices=%d bytes=%d prefetch=%v seed=%d", slices, sliceBytes, prefetch, seed)
					lazy := NewInfinityCache(slices, sliceBytes, 17e12, 25*sim.Nanosecond, prefetch)
					eager := newEagerInfinityCache(slices, sliceBytes, 17e12, 25*sim.Nanosecond, prefetch)
					if lazy.Slices() != eager.Slices() || lazy.TotalBytes() != eager.TotalBytes() {
						t.Fatalf("%s: geometry %d slices, %d B; eager %d, %d", name,
							lazy.Slices(), lazy.TotalBytes(), eager.Slices(), eager.TotalBytes())
					}
					rng := rand.New(rand.NewSource(seed))
					// Jumps land anywhere in 64 slices' worth of bytes,
					// so the 16 KiB slices evict and write back.
					span := 64 * sliceBytes
					addr := int64(0)
					var now sim.Time
					for step := 0; step < 3000; step++ {
						switch r := rng.Intn(100); {
						case r == 0:
							lazy.ResetStats()
							eager.ResetStats()
						case r < 10:
							addr = rng.Int63n(span)
						default:
							addr += 128
						}
						ch := rng.Intn(slices)
						if rng.Intn(4) == 0 {
							ch = int(addr/128) % slices
						}
						nbytes := int64(64 << rng.Intn(3))
						write := rng.Intn(3) == 0
						got := lazy.Access(now, ch, addr, nbytes, write)
						want := eager.Access(now, ch, addr, nbytes, write)
						if got != want {
							t.Fatalf("%s, step %d: Access(ch %d, addr %d, %d B, write %v) = %+v, eager %+v",
								name, step, ch, addr, nbytes, write, got, want)
						}
						if lazy.Stats() != eager.Stats() || lazy.Accesses() != eager.Accesses() {
							t.Fatalf("%s, step %d: Stats %+v and %d accesses, eager %+v and %d",
								name, step, lazy.Stats(), lazy.Accesses(), eager.Stats(), eager.Accesses())
						}
						now += sim.Time(rng.Intn(4000))
					}
				}
			}
		}
	}
}
