package mem

import (
	"fmt"

	"repro/internal/sim"
)

// The row-buffer model's geometry: 1 KiB rows spread over 16 banks.
const (
	rowShift = 10
	banks    = 16
)

// Channel is one memory channel with a fixed bandwidth, an occupancy
// horizon, and a bank/row-buffer model: accesses that hit an open row see
// only the column latency, while row misses pay precharge + activate.
// Bank activation overlaps with other banks' data transfers, so row
// misses add latency to the request without consuming channel bandwidth —
// the standard behavior of a deeply banked HBM channel.
type Channel struct {
	Index int
	BW    float64 // bytes/sec

	// RowMissPenalty is the extra latency of precharge + activate.
	RowMissPenalty sim.Time

	// openRows[b] is the row open in bank b, or -1; nil until the first
	// access with an address.
	openRows  *[banks]int64
	busyUntil sim.Time
	bytes     uint64
	reads     uint64
	writes    uint64
	rowHits   uint64
	rowMisses uint64
	retired   bool
	eccEvents uint64
	// opsAtRetire freezes reads+writes at the moment the channel was
	// retired. A retired channel must serve no new operations (the live
	// redirect routes around it), so any growth past this mark means the
	// interleave leaked traffic onto mapped-out hardware.
	opsAtRetire uint64
}

// Retired reports whether the channel has been mapped out by RAS.
func (c *Channel) Retired() bool { return c.retired }

// ECCEvents reports how many accesses on this channel hit an ECC error and
// paid a correction-retry penalty.
func (c *Channel) ECCEvents() uint64 { return c.eccEvents }

// OpsAtRetire reports the reads+writes counter frozen when the channel
// was retired (meaningful only while Retired() is true).
func (c *Channel) OpsAtRetire() uint64 { return c.opsAtRetire }

// Occupy claims the channel for nbytes starting no earlier than start and
// returns the completion time (no bank modeling; kept for flat devices).
func (c *Channel) Occupy(start sim.Time, nbytes int64, write bool) sim.Time {
	return c.OccupyAt(start, -1, nbytes, write)
}

// OccupyAt claims the channel for nbytes at addr, applying the row-buffer
// model when addr >= 0.
func (c *Channel) OccupyAt(start sim.Time, addr, nbytes int64, write bool) sim.Time {
	var penalty sim.Time
	if addr >= 0 {
		if c.openRows == nil {
			c.openRows = new([banks]int64)
			for i := range c.openRows {
				c.openRows[i] = -1
			}
		}
		row := addr >> rowShift
		bank := row & (banks - 1)
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
	// The activation penalty delays this request's data but does not
	// block the channel (other banks keep transferring).
	return end + penalty
}

// RowStats reports (row hits, row misses).
func (c *Channel) RowStats() (hits, misses uint64) { return c.rowHits, c.rowMisses }

// BytesMoved reports total bytes served by the channel.
func (c *Channel) BytesMoved() uint64 { return c.bytes }

// Counts reports (reads, writes) served.
func (c *Channel) Counts() (reads, writes uint64) { return c.reads, c.writes }

// BusyUntil reports the channel's occupancy horizon.
func (c *Channel) BusyUntil() sim.Time { return c.busyUntil }

// HBM is a set of stacks × channels with a shared address map and a fixed
// array access latency. It models DDR equally well (one "stack", fewer
// channels, lower bandwidth).
type HBM struct {
	Name     string
	Map      *AddressMap
	Latency  sim.Time // row access latency added to every request
	channels []*Channel
	capacity int64

	// ECC-storm model: each chunk independently hits a correctable error
	// with probability eccRate and pays eccPenalty of retry latency.
	eccRate    float64
	eccPenalty sim.Time
	eccRNG     *sim.RNG

	// chunks counts interleave granules issued through AccessObserved
	// (initial issues only, not ECC retries). Request/response accounting
	// demands Σ channel (reads+writes) == chunks + ECCEvents() at drain:
	// every issued chunk occupied exactly one channel once, plus exactly
	// one extra occupancy per ECC retry.
	chunks uint64
}

// NewHBM builds a memory device: stacks × channelsPerStack channels, each
// with stackBW/channelsPerStack bytes/sec.
func NewHBM(name string, stacks, channelsPerStack int, stackBW float64, capacity int64, latency sim.Time) *HBM {
	m := &HBM{
		Name:     name,
		Map:      NewAddressMap(4096, stacks, channelsPerStack),
		Latency:  latency,
		capacity: capacity,
	}
	perChannel := stackBW / float64(channelsPerStack)
	for i := 0; i < stacks*channelsPerStack; i++ {
		m.channels = append(m.channels, &Channel{
			Index: i, BW: perChannel, RowMissPenalty: 35 * sim.Nanosecond,
		})
	}
	return m
}

// Capacity reports the device capacity in bytes.
func (h *HBM) Capacity() int64 { return h.capacity }

// Channels returns the channel list.
func (h *HBM) Channels() []*Channel { return h.channels }

// Channel returns channel i.
func (h *HBM) Channel(i int) *Channel {
	if i < 0 || i >= len(h.channels) {
		panic(fmt.Sprintf("mem: invariant violated: channel index %d outside [0, %d)", i, len(h.channels)))
	}
	return h.channels[i]
}

// PeakBW reports the aggregate peak bandwidth of the live (non-retired)
// channels.
func (h *HBM) PeakBW() float64 {
	var bw float64
	for _, c := range h.channels {
		if !c.retired {
			bw += c.BW
		}
	}
	return bw
}

// RetireChannel maps channel i out of service: subsequent accesses that
// interleave onto it are redirected to the next live channel. Retiring the
// last live channel is refused — a device with zero serviceable channels is
// a dead package, not a degraded one.
func (h *HBM) RetireChannel(i int) error {
	if i < 0 || i >= len(h.channels) {
		return fmt.Errorf("mem: channel %d out of range (%d channels)", i, len(h.channels))
	}
	if h.channels[i].retired {
		return nil
	}
	if h.LiveChannels() == 1 {
		return fmt.Errorf("mem: refusing to retire last live channel %d", i)
	}
	c := h.channels[i]
	c.retired = true
	c.opsAtRetire = c.reads + c.writes
	return nil
}

// RetiredChannels reports how many channels are mapped out.
func (h *HBM) RetiredChannels() int {
	n := 0
	for _, c := range h.channels {
		if c.retired {
			n++
		}
	}
	return n
}

// LiveChannels reports how many channels still serve traffic.
func (h *HBM) LiveChannels() int { return len(h.channels) - h.RetiredChannels() }

// liveChannel redirects a retired channel index to the next live channel,
// scanning forward with wrap-around. The scan order is fixed, so the
// redirection — like everything else in the model — is deterministic.
func (h *HBM) liveChannel(ch int) int {
	for range h.channels {
		if !h.channels[ch].retired {
			return ch
		}
		ch = (ch + 1) % len(h.channels)
	}
	return ch // unreachable while RetireChannel refuses the last live channel
}

// SetECCStorm configures the correctable-error model: each interleave chunk
// independently pays penalty with probability rate, drawn from a dedicated
// deterministic stream seeded with seed. rate = 0 disables the model.
func (h *HBM) SetECCStorm(rate float64, penalty sim.Time, seed uint64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("mem: ECC rate %g outside [0, 1]", rate)
	}
	h.eccRate = rate
	h.eccPenalty = penalty
	h.eccRNG = sim.NewRNG(seed)
	return nil
}

// ECCEvents reports total correctable-error retries across all channels.
func (h *HBM) ECCEvents() uint64 {
	var n uint64
	for _, c := range h.channels {
		n += c.eccEvents
	}
	return n
}

// Access serves a read or write of nbytes at addr starting at start. The
// access is split at interleave-granule boundaries across channels; the
// returned time is when the last chunk completes. Accesses to different
// channels proceed in parallel — this is the bandwidth-amplification
// mechanism of the fine interleave (§IV.D).
func (h *HBM) Access(start sim.Time, addr, nbytes int64, write bool) sim.Time {
	return h.AccessObserved(start, addr, nbytes, write, nil)
}

// AccessObserver receives one callback per channel occupancy of an
// observed access: the channel the interleave hashed to, the live channel
// that actually served it (different only after RAS retirement), the
// occupancy interval, and whether this occupancy was an ECC-retry
// re-transfer. The span-tracing layer records HBM child spans through it.
type AccessObserver func(hashedCh, servedCh int, start, end sim.Time, retry bool)

// AccessObserved is Access with an optional per-channel observer; a nil
// observer makes it exactly Access. Addresses are physical and never
// negative.
func (h *HBM) AccessObserved(start sim.Time, addr, nbytes int64, write bool, obs AccessObserver) sim.Time {
	if nbytes <= 0 {
		return start
	}
	if addr < 0 {
		panic(fmt.Sprintf("mem: invariant violated: %s access at negative address %d", h.Name, addr))
	}
	m := h.Map
	issue := start + h.Latency
	end := start
	// Walk the range granule by granule: each chunk ends at the next
	// granule boundary or at the end of the range.
	for pos := addr; nbytes > 0; {
		chunk := min(nbytes, m.Granule-pos&(m.Granule-1))
		_, ch := m.locate(pos)
		served := h.liveChannel(ch)
		c := h.channels[served]
		h.chunks++
		done := c.OccupyAt(issue, pos, chunk, write)
		if obs != nil {
			obs(ch, served, issue, done, false)
		}
		if h.eccRate > 0 && h.eccRNG != nil && h.eccRNG.Float64() < h.eccRate {
			// A correctable error forces a retry: after the correction
			// latency the chunk re-arbitrates for the channel and transfers
			// again, consuming bandwidth as a real retry would.
			c.eccEvents++
			retryAt := done + h.eccPenalty
			done = c.OccupyAt(retryAt, pos, chunk, write)
			if obs != nil {
				obs(ch, served, retryAt, done, true)
			}
		}
		pos += chunk
		nbytes -= chunk
		if done > end {
			end = done
		}
	}
	return end
}

// ChunksIssued reports interleave granules issued through Access /
// AccessObserved (ECC retries excluded) — the "request" side of the
// channel-occupancy ledger.
func (h *HBM) ChunksIssued() uint64 { return h.chunks }

// BytesMoved reports total bytes served across all channels.
func (h *HBM) BytesMoved() uint64 {
	var b uint64
	for _, c := range h.channels {
		b += c.bytes
	}
	return b
}

// StackBytesMoved reports bytes served by the channels of stack s (the
// per-stack bandwidth telemetry probe). Out-of-range stacks report 0.
func (h *HBM) StackBytesMoved(s int) uint64 {
	if s < 0 || s >= h.Map.Stacks {
		return 0
	}
	var b uint64
	per := h.Map.Channels
	for i := s * per; i < (s+1)*per && i < len(h.channels); i++ {
		b += h.channels[i].bytes
	}
	return b
}

// RowStats reports the aggregate row-buffer hit/miss counters.
func (h *HBM) RowStats() (hits, misses uint64) {
	for _, c := range h.channels {
		hits += c.rowHits
		misses += c.rowMisses
	}
	return hits, misses
}

// ResetStats clears occupancy, counters, and row-buffer state. RAS
// configuration — channel retirement and the ECC-storm model — survives a
// reset, so measurements taken after a fault stay degraded; only the event
// counters restart.
func (h *HBM) ResetStats() {
	for _, c := range h.channels {
		c.busyUntil = 0
		c.bytes = 0
		c.reads = 0
		c.writes = 0
		c.rowHits = 0
		c.rowMisses = 0
		c.openRows = nil
		c.eccEvents = 0
		c.opsAtRetire = 0
	}
	h.chunks = 0
}

// RowHitRate reports the aggregate row-buffer hit fraction.
func (h *HBM) RowHitRate() float64 {
	var hits, misses uint64
	for _, c := range h.channels {
		hits += c.rowHits
		misses += c.rowMisses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// SetNUMADomains reconfigures the interleave into n NUMA domains (NPS
// modes, §VIII): the address space splits into n contiguous regions,
// each interleaving over its own stacks. n must divide the stack count.
func (h *HBM) SetNUMADomains(n int) error {
	if n <= 0 || h.Map.Stacks%n != 0 {
		return fmt.Errorf("mem: %d NUMA domains do not divide %d stacks", n, h.Map.Stacks)
	}
	h.Map.NUMADomains = n
	h.Map.Capacity = h.capacity
	return nil
}
