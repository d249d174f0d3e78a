// Package mem models the MI300 memory system: the HBM stacks and their
// channels with occupancy-based timing, the 4 KB physical-address
// interleave hash that spreads sequential addresses across stacks (§IV.D),
// and a sparse functional address space so programs in the simulator can
// actually read and write a 128+ GB unified memory without committing host
// RAM. The same channel machinery models host DDR for discrete baselines.
package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// AddressMap implements the interleaving scheme of §IV.D: every Granule
// of sequential physical addresses (4 KB on the HBM) maps to the same
// HBM stack before moving to another stack chosen by an address hash.
// Within a stack, granules round-robin across the stack's channels.
type AddressMap struct {
	Granule  int64
	Stacks   int
	Channels int // per stack
	// NUMADomains > 1 subdivides the stacks into NPS-style domains
	// (§VIII): the physical address space is split into NUMADomains
	// contiguous regions of Capacity/NUMADomains bytes, and addresses in
	// domain d interleave only across that domain's stacks.
	NUMADomains int
	// Capacity is the total address-space size, required when
	// NUMADomains > 1 to locate the domain boundaries.
	Capacity int64
	// granuleShift is log2(Granule).
	granuleShift uint
}

// NewAddressMap returns an interleaving map across stacks×channels with the
// given granule. It panics on degenerate geometry, and on a granule that
// is not a power of two: the map finds an address's granule by shifting.
func NewAddressMap(granule int64, stacks, channelsPerStack int) *AddressMap {
	if granule <= 0 || stacks <= 0 || channelsPerStack <= 0 {
		panic(fmt.Sprintf("mem: invariant violated: address map geometry must be positive (granule=%d stacks=%d ch=%d)",
			granule, stacks, channelsPerStack))
	}
	if granule&(granule-1) != 0 {
		panic(fmt.Sprintf("mem: invariant violated: interleave granule %d must be a power of two", granule))
	}
	return &AddressMap{Granule: granule, Stacks: stacks, Channels: channelsPerStack, NUMADomains: 1,
		granuleShift: uint(bits.TrailingZeros64(uint64(granule)))}
}

// hashGranule mixes the granule index so that strided access patterns do not
// camp on one stack — the "physical address hashing scheme" of §IV.D.
func hashGranule(g uint64) uint64 {
	g ^= g >> 30
	g *= 0xBF58476D1CE4E5B9
	g ^= g >> 27
	g *= 0x94D049BB133111EB
	g ^= g >> 31
	return g
}

// reduce reports h mod n, masking when n is a power of two. The stack
// and channel counts of every HBM part are, but the 5-stack part and the
// 12-channel DDR are not.
func reduce(h uint64, n int) int {
	if n&(n-1) == 0 {
		return int(h & uint64(n-1))
	}
	return int(h % uint64(n))
}

// Locate reports the HBM stack and the global channel index (stack *
// Channels + local) of the granule holding addr. It hashes the granule
// once: the stack comes from the hash's low bits and the channel within
// the stack from its high bits, so the two selections stay decorrelated.
func (m *AddressMap) Locate(addr int64) (stack, channel int) {
	first, stacks, _ := m.domain(addr)
	return m.place(addr, first, stacks)
}

// domain reports the stacks of the NUMA domain holding addr, as its first
// stack and their count, and the first address past the domain. NPS>1
// statically partitions the address space into contiguous domains of
// Capacity/NUMADomains bytes; addresses past the last whole domain belong
// to the last one, which therefore never ends. Under NPS1 one domain
// holds every address and every stack.
func (m *AddressMap) domain(addr int64) (first, stacks int, end int64) {
	if m.NUMADomains <= 1 {
		return 0, m.Stacks, math.MaxInt64
	}
	stacks = m.Stacks / m.NUMADomains
	if stacks == 0 {
		panic(fmt.Sprintf("mem: invariant violated: %d NUMA domains cannot share %d stacks", m.NUMADomains, m.Stacks))
	}
	span := max(m.Capacity/int64(m.NUMADomains), 1)
	d := int(addr / span)
	if d >= m.NUMADomains-1 {
		return (m.NUMADomains - 1) * stacks, stacks, math.MaxInt64
	}
	return d * stacks, stacks, int64(d+1) * span
}

// place reports the stack and global channel of the granule holding addr,
// whose NUMA domain has the given stacks: the hash selects one of them,
// and a channel within it.
func (m *AddressMap) place(addr int64, first, stacks int) (stack, channel int) {
	h := hashGranule(uint64(addr) >> m.granuleShift)
	stack = first + reduce(h, stacks)
	return stack, stack*m.Channels + reduce(h>>32, m.Channels)
}
