// Package cache implements the cache hierarchy models: a generic
// set-associative cache with LRU replacement used for the CU L1D, the
// shared instruction caches, the XCD L2, and the CCD L2/L3; and the
// memory-side Infinity Cache (§IV.D) — 2 MB per memory channel, with a
// stream prefetcher — whose job in MI300 is bandwidth amplification for
// the HBM rather than coherence participation.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Stats accumulates cache event counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Prefetches uint64
	PrefHits   uint64 // hits on prefetched lines
}

// Accesses reports hits+misses.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate reports the hit fraction (0 when untouched).
func (s *Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits) / float64(a)
}

// Line states, kept in the low two bits of a stored key. A zeroed key is
// invalid, so freshly allocated pages need no initialisation. A
// prefetched line is always clean: a demand hit clears the mark before a
// write can dirty it, so four states cover every line.
const (
	invalid int64 = iota
	prefetchedLine
	dirtyLine
	cleanLine
	stateMask = 3
)

// SetAssoc is a set-associative cache with true-LRU replacement. It is a
// tag store only: data lives in the functional mem.Space, so the cache
// tracks presence and dirtiness for timing and traffic accounting.
//
// Storage is lazy and pointer-free, so an untouched cache costs only this
// struct. The directory is allocated on the first fill, and each set
// takes a block of Ways contiguous keys from the arena on its own first
// fill: the valid ones first and most-recent-first. A key is the line's
// tag within its set shifted left two bits over the line's state. A set
// keeps its block for the cache's lifetime, through Invalidate and Flush,
// until Release hands the directory and pages to the package free list
// that later caches take theirs from.
type SetAssoc struct {
	Name     string
	LineSize int64
	Ways     int
	Sets     int
	stats    Stats
	// lineShift is log2(LineSize), or -1 when LineSize is not a power
	// of two and locate must divide.
	lineShift int
	setShift  uint
	// dir[s] is 1 + the index of set s's block, or 0 before its first
	// fill. A uint32 suffices: 2^32 blocks would be an arena of at least
	// 32 GiB.
	dir []uint32
	// The arena: page p holds blocks p<<pageShift up to (p+1)<<pageShift.
	// A page is 1/32 of the cache (or one block), so growing the arena
	// never copies a key and never holds more than a page of blocks no
	// set has claimed.
	pages     [][]int64
	pageShift uint
	pageMask  int
	blocks    uint32
	// released is set by Release; a released cache panics on its next
	// fill.
	released bool
}

// NewSetAssoc builds a cache of the given total size. Size must be a
// multiple of lineSize×ways and the set count must be a power of two.
func NewSetAssoc(name string, size, lineSize int64, ways int) *SetAssoc {
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
	c := &SetAssoc{Name: name, LineSize: lineSize, Ways: ways, Sets: sets,
		lineShift: -1, setShift: uint(bits.TrailingZeros(uint(sets)))}
	if lineSize&(lineSize-1) == 0 {
		c.lineShift = bits.TrailingZeros64(uint64(lineSize))
	}
	c.pageShift = uint(max(0, int(c.setShift)-5))
	c.pageMask = 1<<c.pageShift - 1
	return c
}

// Size reports total capacity in bytes.
func (c *SetAssoc) Size() int64 { return int64(c.Sets*c.Ways) * c.LineSize }

// Stats returns a copy of the counters.
func (c *SetAssoc) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without flushing contents.
func (c *SetAssoc) ResetStats() { c.stats = Stats{} }

// locate maps addr to its set and the tag naming its line within that
// set: the line address without the set-index bits. The tag must fit in
// 62 bits beside the state, which every address does unless the cache has
// fewer than four bytes of line across all its sets.
func (c *SetAssoc) locate(addr int64) (set int, tag int64) {
	var lineAddr int64
	if c.lineShift >= 0 {
		// addr / LineSize truncates toward zero; biasing a negative
		// address by LineSize-1 before the arithmetic shift matches it.
		lineAddr = (addr + addr>>63&(c.LineSize-1)) >> (c.lineShift & 63)
	} else {
		lineAddr = addr / c.LineSize
	}
	tag = lineAddr >> (c.setShift & 63)
	if tag<<2>>2 != tag {
		panic(untaggableError{c.Name, addr, c.Sets, c.LineSize})
	}
	return int(lineAddr) & (c.Sets - 1), tag
}

// untaggableError is the panic value for an address whose tag does not
// fit beside a state. Formatting it only when printed keeps locate cheap
// enough to inline.
type untaggableError struct {
	name     string
	addr     int64
	sets     int
	lineSize int64
}

func (e untaggableError) Error() string {
	return fmt.Sprintf("cache: invariant violated: %s cannot tag address %d: with %d sets of %d-byte lines its tag needs more than 62 bits", e.name, e.addr, e.sets, e.lineSize)
}

// keys returns set's Ways keys, or nil before the set's first fill.
func (c *SetAssoc) keys(set int) []int64 {
	if set >= len(c.dir) || c.dir[set] == 0 {
		return nil
	}
	b := int(c.dir[set] - 1)
	off := b & c.pageMask * c.Ways
	return c.pages[b>>(c.pageShift&63)][off : off+c.Ways]
}

// find returns the way holding tag among a set's keys, or -1 and the
// number of valid lines.
func find(keys []int64, tag int64) (way, valid int) {
	for i, k := range keys {
		if k&stateMask == invalid {
			return -1, i
		}
		if k>>2 == tag {
			return i, i
		}
	}
	return -1, len(keys)
}

// Result describes the outcome of one cache access.
type Result struct {
	Hit bool
	// Evicted reports whether a valid line was displaced.
	Evicted bool
	// WritebackAddr is the byte address of the dirty victim line when a
	// writeback is required (valid only if Writeback).
	Writeback     bool
	WritebackAddr int64
}

// Access looks up the line containing addr, filling on miss, and returns
// what happened. write marks the line dirty.
func (c *SetAssoc) Access(addr int64, write bool) Result {
	set, tag := c.locate(addr)
	return c.access(set, tag, write)
}

// access is Access on a located line.
func (c *SetAssoc) access(set int, tag int64, write bool) Result {
	keys := c.keys(set)
	way, valid := find(keys, tag)
	if way >= 0 {
		// Hit: move to front (MRU).
		state := keys[way] & stateMask
		if state == prefetchedLine {
			c.stats.PrefHits++
			state = cleanLine
		}
		if write {
			state = dirtyLine
		}
		// A loop, not copy: a hit moves fewer than Ways keys, and for
		// so few the memmove call costs more than the move.
		for j := way; j > 0; j-- {
			keys[j] = keys[j-1]
		}
		keys[0] = tag<<2 | state
		c.stats.Hits++
		return Result{Hit: true}
	}
	c.stats.Misses++
	state := cleanLine
	if write {
		state = dirtyLine
	}
	return c.fill(set, keys, valid, tag<<2|state)
}

// ReadRange reads the n bytes at addr and returns how many lines missed.
// It leaves the cache and its Stats exactly as the per-line calls
// Access(a, false) would, for a = addr, addr+LineSize, ... below addr+n,
// and it panics, before changing anything, if one of those lines cannot
// be tagged or the range wraps past the largest address.
//
// Consecutive lines fall in consecutive sets and sets are independent,
// so ReadRange visits each set once with the run of consecutive tags the
// range puts there; see readRun. Negative addresses and line sizes that
// are not a power of two take the per-line loop.
func (c *SetAssoc) ReadRange(addr, n int64) (misses int) {
	if n <= 0 {
		return 0
	}
	if addr > math.MaxInt64-n {
		panic(fmt.Sprintf("cache: invariant violated: %s range [%d, +%d) wraps past the largest address", c.Name, addr, n))
	}
	lines := (n-1)/c.LineSize + 1
	last := addr + (lines-1)*c.LineSize
	// Tags grow with addresses, so if the first and last lines can be
	// tagged, every line between them can.
	c.locate(addr)
	c.locate(last)
	if addr < 0 || c.lineShift < 0 {
		for i := int64(0); i < lines; i++ {
			if !c.Access(addr+i*c.LineSize, false).Hit {
				misses++
			}
		}
		return misses
	}
	first := addr >> (c.lineShift & 63)
	// Lines first+j, first+j+Sets, ... share a set and carry consecutive
	// tags. With lines = laps·Sets + rem, the sets of the first rem lines
	// get laps+1 of them and the others laps.
	laps, rem := lines>>(c.setShift&63), lines&int64(c.Sets-1)
	k := laps + 1
	for j := int64(0); j < min(lines, int64(c.Sets)); j++ {
		if j == rem {
			k = laps
		}
		la := first + j
		misses += c.readRun(int(la)&(c.Sets-1), la>>(c.setShift&63), k)
	}
	return misses
}

// readRun reads the k lines with consecutive tags t0, t0+1, ... in set,
// in that order, as ReadRange does, and returns how many missed. Two
// common runs take a shortcut:
//   - the k lines already sit at the front in reverse order and none is
//     prefetched: every read hits the line at way k-1 and moves it to
//     the front, which puts the set back as it was, so only the hits
//     count;
//   - none of the k lines is present: every read misses and fills at
//     MRU, so one shift puts the last min(k, Ways) of them at the front,
//     newest first, and the valid+k-Ways least recent lines are evicted.
//
// Any other run goes line by line.
func (c *SetAssoc) readRun(set int, t0, k int64) (misses int) {
	keys := c.keys(set)
	if frontRun(keys, t0, k) {
		c.stats.Hits += uint64(k)
		return 0
	}
	valid := 0
	present := false
	for _, key := range keys {
		if key&stateMask == invalid {
			break
		}
		if uint64(key>>2-t0) < uint64(k) {
			present = true
		}
		valid++
	}
	if present {
		for i := int64(0); i < k; i++ {
			if !c.access(set, t0+i, false).Hit {
				misses++
			}
		}
		return misses
	}
	c.stats.Misses += uint64(k)
	if keys == nil {
		keys = c.allocate(set)
	}
	fresh := int(min(k, int64(c.Ways)))
	kept := min(valid, c.Ways-fresh)
	if evicted := int64(valid) + k - int64(c.Ways); evicted > 0 {
		c.stats.Evictions += uint64(evicted)
	}
	for _, key := range keys[kept:valid] {
		if key&stateMask == dirtyLine {
			c.stats.Writebacks++
		}
	}
	copy(keys[fresh:fresh+kept], keys[:kept])
	for i := 0; i < fresh; i++ {
		keys[i] = (t0+k-1-int64(i))<<2 | cleanLine
	}
	return int(k)
}

// frontRun reports whether keys begins with the valid, non-prefetched
// lines t0+k-1, ..., t0.
func frontRun(keys []int64, t0, k int64) bool {
	if k > int64(len(keys)) {
		return false
	}
	for i, key := range keys[:k] {
		// Dirty and clean are the two states above prefetched.
		if key>>2 != t0+k-1-int64(i) || key&stateMask < dirtyLine {
			return false
		}
	}
	return true
}

// fill inserts key at MRU in a set holding valid lines, evicting LRU if
// the set is full. keys is nil before the set's first fill.
func (c *SetAssoc) fill(set int, keys []int64, valid int, key int64) Result {
	if keys == nil {
		keys = c.allocate(set)
	}
	var res Result
	if valid == c.Ways {
		valid--
		victim := keys[valid]
		res.Evicted = true
		c.stats.Evictions++
		if victim&stateMask == dirtyLine {
			res.Writeback = true
			res.WritebackAddr = (victim>>2<<(c.setShift&63) | int64(set)) * c.LineSize
			c.stats.Writebacks++
		}
	}
	copy(keys[1:valid+1], keys[:valid])
	keys[0] = key
	return res
}

// allocate gives set a block on its first fill, taking the directory
// and a new page from the free list as needed, and returns the set's
// keys.
func (c *SetAssoc) allocate(set int) []int64 {
	if c.dir == nil {
		if c.released {
			panic(fmt.Sprintf("cache: invariant violated: %s was filled after Release handed its storage back", c.Name))
		}
		c.dir = recycled.dirs.take(c.Sets)
	}
	if int(c.blocks)&c.pageMask == 0 {
		c.pages = append(c.pages, recycled.keys.take(c.Ways<<c.pageShift))
	}
	c.blocks++
	c.dir[set] = c.blocks
	return c.keys(set)
}

// Contains reports whether addr's line is present (no LRU update).
func (c *SetAssoc) Contains(addr int64) bool {
	set, tag := c.locate(addr)
	way, _ := find(c.keys(set), tag)
	return way >= 0
}

// Prefetch inserts addr's line if absent, marking it prefetched. Hit in
// the result means the line was already present and nothing was filled;
// otherwise the result describes the fill's eviction and writeback, as
// for a missing Access.
func (c *SetAssoc) Prefetch(addr int64) Result {
	set, tag := c.locate(addr)
	keys := c.keys(set)
	way, valid := find(keys, tag)
	if way >= 0 {
		return Result{Hit: true}
	}
	c.stats.Prefetches++
	return c.fill(set, keys, valid, tag<<2|prefetchedLine)
}

// Invalidate drops addr's line, reporting whether it was present and dirty.
func (c *SetAssoc) Invalidate(addr int64) (present, dirty bool) {
	set, tag := c.locate(addr)
	keys := c.keys(set)
	way, _ := find(keys, tag)
	if way < 0 {
		return false, false
	}
	dirty = keys[way]&stateMask == dirtyLine
	copy(keys[way:], keys[way+1:])
	keys[len(keys)-1] = invalid
	return true, dirty
}

// Flush invalidates everything, returning the number of dirty lines that
// would be written back.
func (c *SetAssoc) Flush() (writebacks int) {
	for _, pg := range c.pages {
		for _, k := range pg {
			if k&stateMask == dirtyLine {
				writebacks++
			}
		}
		clear(pg)
	}
	return writebacks
}

// Occupancy reports the number of valid lines.
func (c *SetAssoc) Occupancy() int {
	var n int
	for _, pg := range c.pages {
		for _, k := range pg {
			if k&stateMask != invalid {
				n++
			}
		}
	}
	return n
}
