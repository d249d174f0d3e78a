// Package mem models the MI300 memory system: the HBM stacks and their
// channels with occupancy-based timing, the 4 KB physical-address
// interleave hash that spreads sequential addresses across stacks (§IV.D),
// and a sparse functional address space so programs in the simulator can
// actually read and write a 128+ GB unified memory without committing host
// RAM. The same channel machinery models host DDR for discrete baselines.
package mem

import (
	"fmt"
	"math/bits"
)

// AddressMap implements the interleaving scheme of §IV.D: every
// InterleaveGranule (4 KB) of sequential physical addresses maps to the
// same HBM stack before moving to another stack chosen by an address hash.
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

// locate reports the HBM stack and the global channel index (stack *
// Channels + local) of the granule holding addr. It hashes the granule
// once: the stack comes from the hash's low bits and the channel within
// the stack from its high bits, so the two selections stay decorrelated.
func (m *AddressMap) locate(addr int64) (stack, channel int) {
	h := hashGranule(uint64(addr) >> m.granuleShift)
	if m.NUMADomains <= 1 {
		stack = reduce(h, m.Stacks)
	} else {
		// NPS>1: the address space is statically partitioned into
		// contiguous domains; the address's region selects the domain,
		// the hash selects a stack within it.
		perDomain := m.Stacks / m.NUMADomains
		span := m.Capacity / int64(m.NUMADomains)
		if span <= 0 {
			span = 1
		}
		domain := int(addr / span)
		if domain >= m.NUMADomains {
			domain = m.NUMADomains - 1
		}
		stack = domain*perDomain + int(h%uint64(perDomain))
	}
	return stack, stack*m.Channels + reduce(h>>32, m.Channels)
}

// Stack reports which HBM stack the address belongs to.
func (m *AddressMap) Stack(addr int64) int {
	stack, _ := m.locate(addr)
	return stack
}

// Channel reports the global channel index (stack*Channels + local) for the
// address.
func (m *AddressMap) Channel(addr int64) int {
	_, ch := m.locate(addr)
	return ch
}

// TotalChannels reports stacks × channels-per-stack.
func (m *AddressMap) TotalChannels() int { return m.Stacks * m.Channels }
