package cache

import "sync"

// recycleCap bounds the tag storage the free list keeps, in bytes. The
// most one run of the suite hands back is fig14's 2.9 MiB of claimed
// Infinity Cache slices; policy's twelve XCD L2s keep one shared row each
// and hand back 96 KiB. Run one at a time, the whole suite leaves at most
// 3.0 MiB on the list; at -parallel 2 or 4, where overlapping runs each
// take fresh storage, 4.9 MiB. 8 MiB keeps all of it and bounds what an
// idle process holds. Storage released beyond it is left to the GC.
const recycleCap = 8 << 20

// recycled is the package free list of tag storage, shared by every
// cache in the process: directories and key pages, each kept by length.
// Release puts a cache's storage here and allocate takes it back, zeroed,
// so a cache built on recycled storage behaves exactly like a fresh one.
var recycled = struct {
	mu    sync.Mutex
	bytes int
	dirs  freeList[uint32]
	keys  freeList[int64]
}{dirs: freeList[uint32]{elemBytes: 4}, keys: freeList[int64]{elemBytes: 8}}

// freeList holds released slices of one element type, by length.
type freeList[T uint32 | int64] struct {
	elemBytes int
	byLen     map[int][][]T
}

// take returns a zeroed slice of length n, recycled if one is free.
func (f *freeList[T]) take(n int) []T {
	recycled.mu.Lock()
	l := f.byLen[n]
	if len(l) == 0 {
		recycled.mu.Unlock()
		return make([]T, n)
	}
	s := l[len(l)-1]
	l[len(l)-1] = nil
	f.byLen[n] = l[:len(l)-1]
	recycled.bytes -= n * f.elemBytes
	recycled.mu.Unlock()
	clear(s)
	return s
}

// put keeps s for a later take unless that would pass recycleCap. The
// caller holds recycled.mu.
func (f *freeList[T]) put(s []T) {
	size := len(s) * f.elemBytes
	if s == nil || recycled.bytes+size > recycleCap {
		return
	}
	if f.byLen == nil {
		f.byLen = make(map[int][][]T)
	}
	f.byLen[len(s)] = append(f.byLen[len(s)], s)
	recycled.bytes += size
}

// Release hands the cache's tag storage to the package free list and
// ends the cache's life: its Stats stay readable, it holds no lines, and
// any later fill panics. A second Release does nothing. The caller must
// be the cache's last user; the runner releases what a run built once
// the run has ended.
func (c *SetAssoc) Release() {
	recycled.mu.Lock()
	recycled.dirs.put(c.dir)
	for _, pg := range c.pages {
		recycled.keys.put(pg)
	}
	recycled.mu.Unlock()
	c.dir, c.pages, c.blocks = nil, nil, 0
	c.released = true
}

// Release releases every slice built so far (see SetAssoc.Release); a
// slice first touched afterwards panics as a released one would.
func (ic *InfinityCache) Release() {
	for _, sl := range ic.slices {
		if sl != nil {
			sl.tags.Release()
		}
	}
	ic.released = true
}
