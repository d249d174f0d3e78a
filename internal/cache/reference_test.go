package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
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

// runDiff runs prog, three bytes per step, against a fresh SetAssoc and
// refSetAssoc of geometry g, and fails at the first divergence. A step on
// an address SetAssoc cannot tag must panic and is skipped on both, as
// must a ReadRange that holds such an address or wraps past the largest
// address. An op byte of 0xe0 or more is a ReadRange: bit 4 repeats the
// previous range, and the low four bits pick the length. releaseOp
// recycles the cache.
func runDiff(t *testing.T, g geometry, prog []byte) {
	t.Helper()
	size := int64(g.sets*g.ways) * g.lineSize
	c := NewSetAssoc("diff", size, g.lineSize, g.ways)
	ref := newRefSetAssoc("diff", size, g.lineSize, g.ways)
	var lastAddr, lastLen int64
	for step := 0; step+3 <= len(prog); step += 3 {
		op, addr := prog[step]%64, opAddr(g, prog[step+1], prog[step+2])
		if prog[step] == releaseOp {
			c.Release()
			if taggable(g, addr) && !panics(func() { c.Access(addr, false) }) {
				t.Fatalf("%v, step %d: a released cache took a fill", g, step/3)
			}
			c = NewSetAssoc("diff", size, g.lineSize, g.ways)
			ref = newRefSetAssoc("diff", size, g.lineSize, g.ways)
			continue
		}
		if prog[step] >= 0xe0 {
			n := rangeLen(g, prog[step])
			if prog[step]&0x10 != 0 {
				addr, n = lastAddr, lastLen
			}
			lastAddr, lastLen = addr, n
			before := c.Stats()
			bad, untaggable := untaggableLine(g, addr, n)
			if untaggable || (n > 0 && addr > math.MaxInt64-n) {
				if !panics(func() { c.ReadRange(addr, n) }) {
					t.Fatalf("%v, step %d: ReadRange(%#x, %d) over an untaggable or wrapping range did not panic", g, step/3, addr, n)
				}
				if untaggable && !panics(func() { c.Access(bad, false) }) {
					t.Fatalf("%v, step %d: Access(%#x) of an untaggable line did not panic", g, step/3, bad)
				}
				if c.Stats() != before {
					t.Fatalf("%v, step %d: a refused ReadRange(%#x, %d) changed Stats", g, step/3, addr, n)
				}
				continue
			}
			if got, want := c.ReadRange(addr, n), refReadRange(ref, addr, n); got != want {
				t.Fatalf("%v, step %d: ReadRange(%#x, %d) = %d misses, reference %d", g, step/3, addr, n, got, want)
			}
			if gs, ws := c.Stats(), ref.Stats(); gs != ws {
				t.Fatalf("%v, step %d: after ReadRange(%#x, %d) Stats = %+v, reference %+v", g, step/3, addr, n, gs, ws)
			}
			continue
		}
		if op < 60 && !taggable(g, addr) {
			if g.lineSize*int64(g.sets) >= 4 {
				t.Fatalf("%v: address %#x untaggable in a cache with at least four bytes of line across its sets", g, addr)
			}
			if !panics(func() { c.Access(addr, false) }) || !panics(func() { c.Prefetch(addr) }) ||
				!panics(func() { c.Contains(addr) }) || !panics(func() { c.Invalidate(addr) }) {
				t.Fatalf("%v, step %d: address %#x cannot be tagged but did not panic", g, step/3, addr)
			}
			continue
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
			t.Fatalf("%v, step %d: %s(%#x) = %+v, reference %+v", g, step/3, name, addr, got, want)
		}
		if gs, ws := c.Stats(), ref.Stats(); gs != ws {
			t.Fatalf("%v, step %d: after %s(%#x) Stats = %+v, reference %+v", g, step/3, name, addr, gs, ws)
		}
	}
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

func FuzzSetAssocDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		runDiff(t, geometryOf(prog[0]), prog[1:])
	})
}
