package cache

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// InfinityCache is the MI300 memory-side cache (§IV.D): one slice per
// memory channel (2 MB each, 256 MB total on MI300A). As a memory-side
// cache it sits between the fabric and the HBM channels and does not
// participate in coherence; its job is bandwidth amplification — hits are
// served at the cache's (higher) bandwidth instead of the channel's HBM
// bandwidth — plus a hardware stream prefetcher to cut latency.
type InfinityCache struct {
	// slices[ch] is the slice paired with channel ch, built on its first
	// access: a cache no run touches holds only this list.
	slices     []*icSlice
	sliceBytes int64
	// sliceBW is per-slice bandwidth in bytes/sec (aggregate/slices).
	sliceBW float64
	// hitLatency is the slice access latency; missLatency is added HBM
	// array latency and is owned by the HBM model.
	hitLatency sim.Time
	// prefetch enables the per-slice stream prefetcher.
	prefetch bool
	// accesses counts Access calls. Slice accounting demands that every
	// access registered exactly one hit or miss across the slices —
	// accesses == Σ (hits + misses) — which the audit layer checks.
	accesses uint64
	// released is set by Release; a slice first touched after it panics.
	released bool
}

// icSlice is one channel's slice of the Infinity Cache.
type icSlice struct {
	tags SetAssoc
	// stream is the last line address the slice served, for stream
	// detection; -1 before the first.
	stream int64
	// busyUntil models the slice's port occupancy.
	busyUntil sim.Time
}

// Infinity Cache slice geometry: 128-byte lines, 16 ways.
const (
	icLineSize = 128
	icWays     = 16
)

// NewInfinityCache builds slices caches of sliceBytes each, sharing
// totalBW evenly. It checks the slice geometry now; each slice's state is
// built on the slice's first access.
func NewInfinityCache(slices int, sliceBytes int64, totalBW float64, hitLatency sim.Time, prefetch bool) *InfinityCache {
	if slices <= 0 {
		panic(fmt.Sprintf("cache: invariant violated: an Infinity Cache needs at least one slice (got %d)", slices))
	}
	checkGeometry(sliceName(0), sliceBytes, icLineSize, icWays)
	return &InfinityCache{
		slices:     make([]*icSlice, slices),
		sliceBytes: sliceBytes,
		sliceBW:    totalBW / float64(slices),
		hitLatency: hitLatency,
		prefetch:   prefetch,
	}
}

// sliceName names slice ch's tag store.
func sliceName(ch int) string { return "mall" + strconv.Itoa(ch) }

// build builds channel ch's slice on its first access.
func (ic *InfinityCache) build(ch int) *icSlice {
	if ic.released {
		panic(fmt.Sprintf("cache: invariant violated: %s was filled after Release handed its storage back", sliceName(ch)))
	}
	sl := &icSlice{stream: -1}
	sl.tags.init(sliceName(ch), ic.sliceBytes, icLineSize, icWays)
	ic.slices[ch] = sl
	return sl
}

// Slices reports the slice count.
func (ic *InfinityCache) Slices() int { return len(ic.slices) }

// TotalBytes reports aggregate capacity.
func (ic *InfinityCache) TotalBytes() int64 {
	return int64(len(ic.slices)) * ic.sliceBytes
}

// Stats sums slice counters; an untouched slice has none.
func (ic *InfinityCache) Stats() Stats {
	var s Stats
	for _, sl := range ic.slices {
		if sl == nil {
			continue
		}
		st := sl.tags.Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Evictions += st.Evictions
		s.Writebacks += st.Writebacks
		s.Prefetches += st.Prefetches
		s.PrefHits += st.PrefHits
	}
	return s
}

// AccessResult describes one memory-side access outcome.
type AccessResult struct {
	Hit  bool
	Done sim.Time
	// Begin is when the slice actually began serving the request — after
	// the hit latency and any port-queue wait behind earlier traffic.
	// Done - Begin is pure service time; Begin - (request arrival) is
	// queueing, which the span-tracing layer reports separately.
	Begin sim.Time
	// HBMBytes is residual traffic that must still go to the HBM channel:
	// the miss fill and the prefetch fill, each with any dirty writeback
	// its eviction caused.
	HBMBytes int64
}

// Access serves nbytes at addr against the slice paired with channel ch.
// On a hit the data comes from the slice at slice bandwidth; on a miss the
// caller must move HBMBytes to/from the HBM channel. The stream prefetcher
// pulls the next line on detected sequential misses.
func (ic *InfinityCache) Access(start sim.Time, ch int, addr, nbytes int64, write bool) AccessResult {
	if ch < 0 || ch >= len(ic.slices) {
		panic(fmt.Sprintf("cache: invariant violated: slice index %d outside [0, %d) — the interleave hash must stay in range", ch, len(ic.slices)))
	}
	ic.accesses++
	sl := ic.slices[ch]
	if sl == nil {
		sl = ic.build(ch)
	}
	res := sl.tags.Access(addr, write)

	// Slice port occupancy at slice bandwidth.
	begin := start + ic.hitLatency
	if sl.busyUntil > begin {
		begin = sl.busyUntil
	}
	done := begin + sim.FromSeconds(float64(nbytes)/ic.sliceBW)
	sl.busyUntil = done

	out := AccessResult{Hit: res.Hit, Done: done, Begin: begin}
	if !res.Hit {
		out.HBMBytes = icLineSize
		if res.Writeback {
			out.HBMBytes += icLineSize
		}
	}
	// Stream prefetch: a detected sequential run (on hits or misses)
	// keeps pulling the next line, so a steady stream converges to hits.
	// A prefetch fill that evicts a dirty line writes it back too.
	if ic.prefetch {
		lineAddr := addr / icLineSize
		if sl.stream == lineAddr-1 || sl.stream == lineAddr {
			if pr := sl.tags.Prefetch((lineAddr + 1) * icLineSize); !pr.Hit {
				out.HBMBytes += icLineSize
				if pr.Writeback {
					out.HBMBytes += icLineSize
				}
			}
		}
		sl.stream = lineAddr
	}
	return out
}

// Accesses reports total Access calls — the "request" side of the slice
// accounting ledger that Σ (hits + misses) must match.
func (ic *InfinityCache) Accesses() uint64 { return ic.accesses }

// HitRate reports the aggregate hit fraction.
func (ic *InfinityCache) HitRate() float64 {
	s := ic.Stats()
	return s.HitRate()
}

// ResetStats zeroes counters and occupancy (contents retained).
func (ic *InfinityCache) ResetStats() {
	for _, sl := range ic.slices {
		if sl != nil {
			sl.tags.ResetStats()
			sl.busyUntil = 0
		}
	}
	ic.accesses = 0
}

// EffectiveBW reports the bandwidth-amplified effective memory bandwidth
// for a given hit rate: hits at cache bandwidth, misses at HBM bandwidth.
// This is the quantity behind the paper's "up to 17 TB/s" claim.
func EffectiveBW(hitRate, cacheBW, hbmBW float64) float64 {
	if hitRate < 0 {
		hitRate = 0
	}
	if hitRate > 1 {
		hitRate = 1
	}
	// Harmonic combination: time per byte is the blend of the two paths.
	tb := hitRate/cacheBW + (1-hitRate)/hbmBW
	return 1 / tb
}
