// Package multisocket models the coherence-scope design of §IV.D at node
// scale: "The CPUs are hardware coherent with all CPUs and GPUs ... The
// GPUs are software-coherent to GPUs in other sockets (to reduce hardware
// coherence bandwidth needs) and directory-based hardware coherent within
// a socket." This package quantifies that choice on the Fig. 18(a)
// 4×MI300A node: a producer/consumer kernel handoff across sockets under
// (a) software coherence — one scope flush at the kernel boundary, then
// full-speed local reads — versus (b) hypothetical hardware coherence —
// every consumer miss crossing the inter-socket links with probe
// overhead. The crossover shows why software coherence wins for GPU-scale
// traffic while CPU-scale traffic keeps hardware coherence.
package multisocket

import (
	"sort"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/topology"
)

// System is a multi-socket MI300A node with coherence-scope models.
type System struct {
	// PairBWPerDir is the per-direction IF bandwidth between a socket
	// pair.
	PairBWPerDir float64
	// IFLatency is the one-way inter-socket link latency.
	IFLatency sim.Time
	// LineSize is the coherence granule.
	LineSize int64
	// ProbeOverheadBytes is control traffic per line for hardware
	// coherence across sockets (request + probe + response headers).
	ProbeOverheadBytes int64
	// LocalBW is the consumer's local HBM bandwidth.
	LocalBW float64
	// FlushOverhead is the fixed cost of a release-scope flush: walking
	// the producer socket's L2s/L1s and fencing outstanding writes. This
	// is what makes software coherence a bad deal for tiny handoffs.
	FlushOverhead sim.Time
}

// NewQuadAPUSystem builds the scope model over the Fig. 18(a) node.
func NewQuadAPUSystem() (*System, error) {
	node, err := topology.QuadAPUNode()
	if err != nil {
		return nil, err
	}
	spec := config.MI300A()
	return &System{
		PairBWPerDir:       node.PairBWPerDir(node.Sockets[0].Name, node.Sockets[1].Name),
		IFLatency:          150 * sim.Nanosecond,
		LineSize:           config.CacheLineSize,
		ProbeOverheadBytes: 64,
		LocalBW:            spec.PeakMemoryBW(),
		FlushOverhead:      10 * sim.Microsecond,
	}, nil
}

// HandoffResult is the cost of moving a producer kernel's output to a
// consumer kernel on another socket.
type HandoffResult struct {
	Mode string
	// BoundaryTime is paid once at the kernel boundary (flush + signal).
	BoundaryTime sim.Time
	// ReadTime is the consumer's time to read the data set once.
	ReadTime sim.Time
	// Total combines both.
	Total sim.Time
	// IFBytes is the traffic placed on inter-socket links.
	IFBytes int64
}

// SoftwareCoherentHandoff models the shipped design: at kernel completion
// the producer's socket flushes the dirty scope over IF to the consumer's
// memory (or the consumer's first touch pulls it once in bulk), after
// which every consumer access runs at local HBM speed.
func (s *System) SoftwareCoherentHandoff(dirtyBytes int64) HandoffResult {
	r := HandoffResult{Mode: "software-coherent", IFBytes: dirtyBytes}
	// Scope flush: fixed cache-walk/fence cost, then bulk writeback
	// across the pair's IF links.
	flush := s.FlushOverhead + sim.FromSeconds(float64(dirtyBytes)/s.PairBWPerDir) + s.IFLatency
	// Completion signal to the consumer socket.
	r.BoundaryTime = flush + s.IFLatency
	// Consumer reads at local HBM bandwidth.
	r.ReadTime = sim.FromSeconds(float64(dirtyBytes) / s.LocalBW)
	r.Total = r.BoundaryTime + r.ReadTime
	return r
}

// HardwareCoherentHandoff models the rejected alternative: no flush, but
// every consumer line miss crosses the IF links with probe overhead, so
// the whole read is bottlenecked by the inter-socket path.
func (s *System) HardwareCoherentHandoff(dirtyBytes int64) HandoffResult {
	lines := (dirtyBytes + s.LineSize - 1) / s.LineSize
	traffic := dirtyBytes + lines*s.ProbeOverheadBytes
	r := HandoffResult{Mode: "hardware-coherent", IFBytes: traffic}
	// Boundary: just the completion signal.
	r.BoundaryTime = 2 * s.IFLatency
	// Reads: all data plus probe traffic over the pair links, plus one
	// round-trip latency exposed per miss burst (deep MLP hides most).
	r.ReadTime = sim.FromSeconds(float64(traffic)/s.PairBWPerDir) + 2*s.IFLatency
	r.Total = r.BoundaryTime + r.ReadTime
	return r
}

// CoherenceBandwidthTax reports the fraction of inter-socket bandwidth
// that hardware coherence would spend on probe traffic for a given access
// footprint — the "hardware coherence bandwidth needs" §IV.D avoids.
func (s *System) CoherenceBandwidthTax(bytes int64) float64 {
	lines := (bytes + s.LineSize - 1) / s.LineSize
	probe := lines * s.ProbeOverheadBytes
	return float64(probe) / float64(bytes+probe)
}

// Crossover reports the smallest handoff size in [lo, hi] at which
// software coherence wins, or hi+1 if it never does. Below it, the flush
// latency dominates and hardware coherence's lazy pulls would be cheaper;
// GPU kernel outputs are far above it.
func (s *System) Crossover(lo, hi int64) int64 {
	return lo + int64(sort.Search(int(hi-lo+1), func(i int) bool {
		n := lo + int64(i)
		return s.SoftwareCoherentHandoff(n).Total < s.HardwareCoherentHandoff(n).Total
	}))
}
