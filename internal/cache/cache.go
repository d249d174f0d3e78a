// Package cache implements the cache hierarchy models: a generic
// set-associative cache with LRU replacement used for the shared
// instruction caches and the XCD L2; and the
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

// scaleSince multiplies what each counter gained since before by n.
func (s *Stats) scaleSince(before Stats, n uint64) {
	s.Hits = before.Hits + (s.Hits-before.Hits)*n
	s.Misses = before.Misses + (s.Misses-before.Misses)*n
	s.Evictions = before.Evictions + (s.Evictions-before.Evictions)*n
	s.Writebacks = before.Writebacks + (s.Writebacks-before.Writebacks)*n
	s.Prefetches = before.Prefetches + (s.Prefetches-before.Prefetches)*n
	s.PrefHits = before.PrefHits + (s.PrefHits-before.PrefHits)*n
}

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
// struct. A set's lines are Ways keys, the valid ones first and
// most-recent-first; a key is the line's tag within its set shifted left
// two bits over the line's state. While every set holds the same keys,
// one shared row of Ways keys stands for them all: a ReadRange of whole
// laps from a set-0 line makes it on an empty cache and keeps it (see
// readRow), and Contains, Occupancy and Flush work on it directly. Every
// other operation that can change a set splits the row first, giving
// every set its own copy. From then on, or from the first fill if no row
// came before it, the directory is allocated and each set takes a block
// of Ways contiguous keys from the arena on its own first fill. A set keeps its block for
// the cache's lifetime, through Invalidate and Flush, until Release hands
// the directory and pages to the package free list that later caches
// take theirs from.
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
	// 32 GiB. It is nil until the first fill or split.
	dir []uint32
	// The arena: page p holds blocks p<<pageShift up to (p+1)<<pageShift.
	// A page is 1/32 of the cache (or one block), so growing the arena
	// never copies a key and never holds more than a page of blocks no
	// set has claimed. While dir is nil, pages is nil or holds one page
	// whose block 0 is the shared row and whose other keys are zero.
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
	c := new(SetAssoc)
	c.init(name, size, lineSize, ways)
	return c
}

// init makes c an empty cache of the given geometry, as NewSetAssoc
// builds it, for caches that live inside another struct.
func (c *SetAssoc) init(name string, size, lineSize int64, ways int) {
	sets := checkGeometry(name, size, lineSize, ways)
	*c = SetAssoc{Name: name, LineSize: lineSize, Ways: ways, Sets: sets,
		lineShift: -1, setShift: uint(bits.TrailingZeros(uint(sets)))}
	if lineSize&(lineSize-1) == 0 {
		c.lineShift = bits.TrailingZeros64(uint64(lineSize))
	}
	c.pageShift = uint(max(0, int(c.setShift)-5))
	c.pageMask = 1<<c.pageShift - 1
}

// checkGeometry returns the set count of a cache of the given geometry,
// and panics if the size does not divide evenly into ways-way sets of
// lineSize-byte lines or the set count is not a power of two.
func checkGeometry(name string, size, lineSize int64, ways int) (sets int) {
	if size <= 0 || lineSize <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invariant violated: geometry must be positive (size=%d line=%d ways=%d)", size, lineSize, ways))
	}
	lines := size / lineSize
	sets = int(lines) / ways
	if sets == 0 || int64(sets*ways)*lineSize != size {
		panic(fmt.Sprintf("cache: invariant violated: %s size %d must divide evenly into %d-way sets of %d-byte lines", name, size, ways, lineSize))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: invariant violated: %s set count %d must be a power of two for index masking", name, sets))
	}
	return sets
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

// row returns the shared row, or nil when the cache has none.
func (c *SetAssoc) row() []int64 {
	if c.dir != nil || c.pages == nil {
		return nil
	}
	return c.pages[0][:c.Ways]
}

// unshare splits the shared row, if the cache has one, before an
// operation that can change one set alone.
func (c *SetAssoc) unshare() {
	if c.dir == nil && c.pages != nil {
		c.split()
	}
}

// split gives every set a block holding the shared row's keys. The row is
// block 0, so it stays as set 0's, and the other sets claim blocks in
// order, as the fills of the reads that made the row would have.
func (c *SetAssoc) split() {
	row := c.row()
	c.dir = recycled.dirs.take(c.Sets)
	c.dir[0] = 1
	for s := 1; s < c.Sets; s++ {
		copy(c.allocate(s), row)
	}
}

// Access looks up the line containing addr, filling on miss, and returns
// what happened. write marks the line dirty.
func (c *SetAssoc) Access(addr int64, write bool) Result {
	set, tag := c.locate(addr)
	c.unshare()
	return c.access(set, c.keys(set), tag, write)
}

// access is Access on a located line whose set holds keys.
func (c *SetAssoc) access(set int, keys []int64, tag int64, write bool) Result {
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
// range puts there; see readRun. A range of whole laps (a multiple of
// Sets lines) from a set-0 line puts the same run in every set, so while
// no set has storage of its own it reads the shared row once; see
// readRow. Any other range splits the row first. Negative addresses and
// line sizes that are not a power of two take the per-line loop.
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
	if c.dir == nil && rem == 0 && first&int64(c.Sets-1) == 0 {
		return c.readRow(first>>(c.setShift&63), laps)
	}
	c.unshare()
	k := laps + 1
	for j := int64(0); j < min(lines, int64(c.Sets)); j++ {
		if j == rem {
			k = laps
		}
		la := first + j
		set := int(la) & (c.Sets - 1)
		misses += c.readRun(set, c.keys(set), la>>(c.setShift&63), k)
	}
	return misses
}

// readRow reads laps whole laps from a set-0 line of tag t0 on a cache
// with no per-set storage, and returns how many lines missed. Every set
// sees the same run of tags, t0 to t0+laps-1, so sets that all hold the
// same keys still do afterwards, and each counter grows by Sets times
// one set's change: one readRun on the shared row stands for all of
// them. An empty cache makes its row first.
func (c *SetAssoc) readRow(t0, laps int64) int {
	row := c.row()
	if row == nil {
		c.live()
		c.pages = append(c.pages, recycled.keys.take(c.Ways<<c.pageShift))
		c.blocks = 1
		row = c.row()
	}
	before := c.stats
	misses := c.readRun(0, row, t0, laps)
	c.stats.scaleSince(before, uint64(c.Sets))
	return misses * c.Sets
}

// readRun reads the k lines with consecutive tags t0, t0+1, ... in set,
// whose keys are keys (nil before its first fill), in that order, as
// ReadRange does, and returns how many missed. Two common runs take a
// shortcut:
//   - the k lines already sit at the front in reverse order and none is
//     prefetched: every read hits the line at way k-1 and moves it to
//     the front, which puts the set back as it was, so only the hits
//     count;
//   - none of the k lines is present: every read misses and fills at
//     MRU, so one shift puts the last min(k, Ways) of them at the front,
//     newest first, and the valid+k-Ways least recent lines are evicted.
//
// Any other run goes line by line.
func (c *SetAssoc) readRun(set int, keys []int64, t0, k int64) (misses int) {
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
			if !c.access(set, keys, t0+i, false).Hit {
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
		c.live()
		c.dir = recycled.dirs.take(c.Sets)
	}
	if int(c.blocks)&c.pageMask == 0 {
		c.pages = append(c.pages, recycled.keys.take(c.Ways<<c.pageShift))
	}
	c.blocks++
	c.dir[set] = c.blocks
	return c.keys(set)
}

// live panics if Release has ended the cache's life.
func (c *SetAssoc) live() {
	if c.released {
		panic(fmt.Sprintf("cache: invariant violated: %s was filled after Release handed its storage back", c.Name))
	}
}

// Contains reports whether addr's line is present (no LRU update).
func (c *SetAssoc) Contains(addr int64) bool {
	set, tag := c.locate(addr)
	keys := c.row()
	if keys == nil {
		keys = c.keys(set)
	}
	way, _ := find(keys, tag)
	return way >= 0
}

// Prefetch inserts addr's line if absent, marking it prefetched. Hit in
// the result means the line was already present and nothing was filled;
// otherwise the result describes the fill's eviction and writeback, as
// for a missing Access.
func (c *SetAssoc) Prefetch(addr int64) Result {
	set, tag := c.locate(addr)
	c.unshare()
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
	c.unshare()
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
// would be written back. A shared row stays shared, and empty.
func (c *SetAssoc) Flush() (writebacks int) {
	for _, pg := range c.pages {
		for _, k := range pg {
			if k&stateMask == dirtyLine {
				writebacks++
			}
		}
		clear(pg)
	}
	return writebacks * c.copies()
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
	return n * c.copies()
}

// copies reports how many sets each stored key stands for: every set
// while the cache has no directory, so that its pages hold at most the
// shared row, and one otherwise.
func (c *SetAssoc) copies() int {
	if c.dir == nil {
		return c.Sets
	}
	return 1
}
