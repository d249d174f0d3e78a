package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
)

// Entry is one cached job result: the terminal state a run reached and
// the exact manifest bytes it produced. Hits return these bytes verbatim,
// so a cached response is byte-identical to the fresh one by
// construction.
type Entry struct {
	// State is the terminal job state the run reached (ok or degraded —
	// failures are never cached).
	State JobState
	// Manifest is the apusim-run-manifest/v1 JSON.
	Manifest []byte
	// Attempts is how many attempts the original run took, echoed to
	// cache-hit jobs so clients see the real cost of the cached result.
	Attempts int
}

// size is the entry's charge against the cache's byte budget.
func (e Entry) size() int64 { return int64(len(e.Manifest)) + int64(len(e.State)) }

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
	// Hits, Misses, and Evictions are cumulative since construction.
	Hits      int64
	Misses    int64
	Evictions int64
	// DiskHits counts hits served from the attached durable store after a
	// memory miss (a subset of Hits). Zero when no store is attached.
	DiskHits int64
}

// Cache is a content-addressed result cache with an LRU byte budget:
// manifests are stored under their spec's SHA-256 content address, and
// when the stored bytes exceed the budget the least-recently-used entries
// are evicted. All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *cacheItem
	byKey  map[string]*list.Element

	hits, misses, evictions, diskHits int64

	// store, when non-nil, is the durable second tier: Put writes through
	// to it and Get falls through to it on a memory miss, promoting disk
	// hits back into the LRU. Evictions only shrink the memory tier — the
	// store keeps the bytes, so an evicted result costs one disk read, not
	// a re-simulation.
	store *durable.Store
	// storeWrites gates the write-through path: the server flips it off
	// when storage durability degrades, so the memory tier keeps serving
	// while a failing disk is never written to. Reads stay enabled — a
	// read failure is handled per-entry by quarantine.
	storeWrites atomic.Bool
	// onStoreError, when set, observes each write-through failure (the
	// server's storage circuit breaker). Set before the cache is shared;
	// not synchronized.
	onStoreError func(error)
}

// cacheItem is one resident entry with its key, for reverse lookup during
// eviction.
type cacheItem struct {
	key   string
	entry Entry
}

// NewCache returns a cache bounded to the given byte budget. A budget
// <= 0 means "no storage": every Get misses and Put is a no-op, which
// makes a disabled cache behave exactly like a cold one.
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// AttachStore layers a durable store under the memory tier. Call before
// the cache is shared across goroutines; attachment is not synchronized.
func (c *Cache) AttachStore(s *durable.Store) {
	c.store = s
	c.storeWrites.Store(true)
}

// SetStoreWrites enables or disables write-through to the durable store.
// Safe to call concurrently with Put.
func (c *Cache) SetStoreWrites(on bool) { c.storeWrites.Store(on) }

// SetStoreErrorHook installs the write-through failure observer. Call
// before the cache is shared; installation is not synchronized.
func (c *Cache) SetStoreErrorHook(fn func(error)) { c.onStoreError = fn }

// Get returns the entry stored under key, marking it most recently used.
// On a memory miss it falls through to the durable store (if attached)
// and promotes a disk hit back into the LRU. Every call counts as a hit
// or a miss.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheItem).entry
		c.mu.Unlock()
		return e, true
	}
	store := c.store
	c.mu.Unlock()

	if store != nil {
		// Disk I/O and its verification happen outside c.mu so a slow read
		// never stalls concurrent memory hits.
		if e, ok := storeGet(store, key); ok {
			c.mu.Lock()
			c.hits++
			c.diskHits++
			c.putLocked(key, e)
			c.mu.Unlock()
			return e, true
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return Entry{}, false
}

// Peek returns the entry stored under key without counting a hit or a
// miss and without promoting disk entries into the memory tier. It is
// the lookup used when serving manifests of jobs recovered from the
// journal, where the read is bookkeeping rather than admission.
func (c *Cache) Peek(key string) (Entry, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheItem).entry
		c.mu.Unlock()
		return e, true
	}
	store := c.store
	c.mu.Unlock()
	if store != nil {
		return storeGet(store, key)
	}
	return Entry{}, false
}

// storeGet reads key's entry from the durable store. Only cacheable
// results are ever stored, so an entry in any other state is damaged: it
// is never served, and the job simulates afresh.
func storeGet(store *durable.Store, key string) (Entry, bool) {
	de, ok := store.Get(key)
	if !ok || !cacheable(JobState(de.State)) {
		return Entry{}, false
	}
	return Entry{State: JobState(de.State), Manifest: de.Manifest, Attempts: de.Attempts}, true
}

// Put stores an entry under key, evicting least-recently-used entries
// until the budget holds, and writes through to the durable store when
// one is attached. An entry bigger than the whole budget is not held in
// memory — evicting everything to fit one oversized manifest would just
// thrash — but it still reaches the store. Re-putting an existing key
// replaces its entry.
func (c *Cache) Put(key string, e Entry) {
	c.mu.Lock()
	c.putLocked(key, e)
	store := c.store
	disabled := c.budget <= 0
	c.mu.Unlock()
	if store != nil && !disabled && c.storeWrites.Load() {
		// Write-through failure is survivable — the memory tier still
		// serves the entry; the store records it in its PutErrors stat and
		// the hook lets the server's circuit breaker stop further writes.
		if err := store.Put(key, durable.Entry{State: string(e.State), Attempts: e.Attempts, Manifest: e.Manifest}); err != nil {
			if c.onStoreError != nil {
				c.onStoreError(err)
			}
		}
	}
}

func (c *Cache) putLocked(key string, e Entry) {
	if c.budget <= 0 || e.size() > c.budget {
		return
	}
	if el, ok := c.byKey[key]; ok {
		item := el.Value.(*cacheItem)
		c.bytes += e.size() - item.entry.size()
		item.entry = e
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&cacheItem{key: key, entry: e})
		c.bytes += e.size()
	}
	for c.bytes > c.budget {
		oldest := c.ll.Back()
		item := oldest.Value.(*cacheItem)
		c.ll.Remove(oldest)
		delete(c.byKey, item.key)
		c.bytes -= item.entry.size()
		c.evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		DiskHits:  c.diskHits,
	}
}
