package mem

import "sync"

// freePagesCap bounds the pages the free list keeps: 16 MiB. fig15, the
// largest user of functional memory among the experiments that run in
// milliseconds, hands back 8 MiB per run; fig14 and managed commit
// 384 MiB each, of which only the cap is kept. Pages released beyond the
// cap are left to the GC.
const freePagesCap = 16 << 20 / pageSize

// freePages is the package free list of pages, shared by every Space in
// the process. Release puts a space's pages here, and a space's first
// write to a page takes one back, zeroed, so a space built on recycled
// pages reads exactly like a fresh one.
var freePages struct {
	mu   sync.Mutex
	list []*page
}

// newPage returns a zeroed page, recycled if one is free.
func newPage() *page {
	freePages.mu.Lock()
	n := len(freePages.list)
	if n == 0 {
		freePages.mu.Unlock()
		return new(page)
	}
	p := freePages.list[n-1]
	freePages.list[n-1] = nil
	freePages.list = freePages.list[:n-1]
	freePages.mu.Unlock()
	*p = page{}
	return p
}

// Release hands the space's pages to the package free list and ends the
// space's life: Allocated and TouchedBytes stay readable, and any later
// read or write panics. A second Release does nothing. The caller must be
// the space's last user; the runner releases what a run built once the
// run has ended.
func (s *Space) Release() {
	freePages.mu.Lock()
	for _, p := range s.pages {
		if p != nil && len(freePages.list) < freePagesCap {
			freePages.list = append(freePages.list, p)
		}
	}
	freePages.mu.Unlock()
	s.pages = nil
	s.released = true
}
