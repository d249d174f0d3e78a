// Package coherence models MI300A's two-tier coherence scheme (§IV.D):
// CPUs are hardware-coherent with all CPUs and GPUs through an EPYC-style
// probe-filter protocol (MOESI); GPUs within a socket are kept coherent by
// a directory using a slightly simpler protocol (MSI); and GPUs in other
// sockets are software-coherent via scope flushes, which keeps hardware
// coherence bandwidth off the inter-socket links (internal/multisocket
// models that side analytically).
//
// The models here are functional directories: they track per-line sharer
// sets and owner state, enforce the protocol invariants, and count the
// probe and invalidation traffic. No platform builds them: they are §IV.D
// claim code, exercised by this package's tests, and Fig. 15's coherent
// flags use core's analytic FlagVisibilityLatency.
package coherence

import (
	"fmt"
	"math/bits"
)

// State is a cache-line coherence state.
type State int

const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// LineAddr is a cache-line-granular address (byte address / line size).
type LineAddr int64

// Stats counts coherence protocol traffic.
type Stats struct {
	Reads         uint64
	Writes        uint64
	ProbesSent    uint64 // probes to owner/sharers
	Invalidations uint64 // sharer copies killed by writes
	DirectHits    uint64 // requests satisfied with no probes
	Transfers     uint64 // cache-to-cache data transfers
}

// entry is one directory line: an owner (for E/O/M) and a sharer bitmask.
type entry struct {
	state   State
	owner   int
	sharers uint64
}

// Outcome describes what one access cost.
type Outcome struct {
	// Probes is how many caching agents had to be probed.
	Probes int
	// CacheTransfer reports whether data came from a peer cache rather
	// than memory.
	CacheTransfer bool
	// Upgraded reports whether the access only changed permissions
	// (no data movement).
	Upgraded bool
}

// Directory is a full-map coherence directory. MOESI semantics when owned
// is true (the CPU probe filter); MSI when false (the simpler GPU
// protocol, where a displaced modified line always writes back to memory).
type Directory struct {
	name   string
	agents int
	moesi  bool
	lines  map[LineAddr]*entry
	stats  Stats
}

// NewProbeFilter returns the EPYC-style MOESI probe filter used for CPU
// coherence, tracking up to agents caching agents.
func NewProbeFilter(name string, agents int) *Directory {
	return newDirectory(name, agents, true)
}

// NewGPUDirectory returns the simpler MSI directory used for intra-socket
// GPU coherence.
func NewGPUDirectory(name string, agents int) *Directory {
	return newDirectory(name, agents, false)
}

func newDirectory(name string, agents int, moesi bool) *Directory {
	if agents <= 0 || agents > 64 {
		panic(fmt.Sprintf("coherence: invariant violated: agent count %d outside [1, 64] (sharer sets are 64-bit masks)", agents))
	}
	return &Directory{name: name, agents: agents, moesi: moesi, lines: make(map[LineAddr]*entry)}
}

// Agents reports the number of tracked caching agents.
func (d *Directory) Agents() int { return d.agents }

// Stats returns a copy of the counters.
func (d *Directory) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *Directory) ResetStats() { d.stats = Stats{} }

func (d *Directory) checkAgent(a int) {
	if a < 0 || a >= d.agents {
		panic(fmt.Sprintf("coherence: invariant violated: agent %d outside [0, %d)", a, d.agents))
	}
}

// Read handles a load miss from agent a.
func (d *Directory) Read(a int, line LineAddr) Outcome {
	d.checkAgent(a)
	d.stats.Reads++
	e := d.lines[line]
	if e == nil || e.state == Invalid {
		d.lines[line] = &entry{state: Exclusive, owner: a, sharers: 1 << a}
		if !d.moesi {
			// MSI has no E: grant S.
			d.lines[line].state = Shared
		}
		d.stats.DirectHits++
		return Outcome{}
	}
	bit := uint64(1) << a
	switch e.state {
	case Shared:
		e.sharers |= bit
		d.stats.DirectHits++
		return Outcome{}
	case Exclusive:
		if e.owner == a {
			d.stats.DirectHits++
			return Outcome{}
		}
		// Probe the owner; both become sharers.
		d.stats.ProbesSent++
		d.stats.Transfers++
		e.state = Shared
		e.sharers |= bit
		return Outcome{Probes: 1, CacheTransfer: true}
	case Modified, Owned:
		if e.owner == a && e.sharers == bit {
			d.stats.DirectHits++
			return Outcome{}
		}
		d.stats.ProbesSent++
		d.stats.Transfers++
		if d.moesi {
			// MOESI: the owner keeps the dirty line in O; reader joins S.
			e.state = Owned
			e.sharers |= bit
		} else {
			// MSI: the modified line is written back; all become S.
			e.state = Shared
			e.sharers |= bit
		}
		return Outcome{Probes: 1, CacheTransfer: true}
	}
	panic("coherence: invariant violated: read reached a line state outside the MOESI lattice")
}

// Write handles a store miss (or upgrade) from agent a, invalidating all
// other sharers.
func (d *Directory) Write(a int, line LineAddr) Outcome {
	d.checkAgent(a)
	d.stats.Writes++
	bit := uint64(1) << a
	e := d.lines[line]
	if e == nil || e.state == Invalid {
		d.lines[line] = &entry{state: Modified, owner: a, sharers: bit}
		d.stats.DirectHits++
		return Outcome{}
	}
	others := e.sharers &^ bit
	probes := bits.OnesCount64(others)
	hadCopy := e.sharers&bit != 0
	d.stats.ProbesSent += uint64(probes)
	d.stats.Invalidations += uint64(probes)
	transfer := false
	if (e.state == Modified || e.state == Owned || e.state == Exclusive) && e.owner != a {
		transfer = true
		d.stats.Transfers++
	}
	e.state = Modified
	e.owner = a
	e.sharers = bit
	if probes == 0 && hadCopy {
		// Silent upgrade (E->M) or re-write by sole owner.
		d.stats.DirectHits++
		return Outcome{Upgraded: true}
	}
	return Outcome{Probes: probes, CacheTransfer: transfer}
}

// StateOf reports the directory state and sharer count for a line.
func (d *Directory) StateOf(line LineAddr) (State, int) {
	e := d.lines[line]
	if e == nil {
		return Invalid, 0
	}
	return e.state, bits.OnesCount64(e.sharers)
}

// CheckInvariants validates protocol invariants over all tracked lines,
// returning the first violation found (nil if clean). The property tests
// run it after every access.
func (d *Directory) CheckInvariants() error {
	for line, e := range d.lines {
		n := bits.OnesCount64(e.sharers)
		switch e.state {
		case Invalid:
			return fmt.Errorf("%s: line %d tracked but Invalid", d.name, line)
		case Modified, Exclusive:
			if n != 1 {
				return fmt.Errorf("%s: line %d in %s with %d sharers", d.name, line, e.state, n)
			}
			if e.sharers != 1<<e.owner {
				return fmt.Errorf("%s: line %d owner %d not the sole sharer", d.name, line, e.owner)
			}
		case Owned:
			if !d.moesi {
				return fmt.Errorf("%s: Owned state in MSI directory", d.name)
			}
			if e.sharers&(1<<e.owner) == 0 {
				return fmt.Errorf("%s: line %d owner %d lost its copy", d.name, line, e.owner)
			}
		case Shared:
			if n == 0 {
				return fmt.Errorf("%s: line %d Shared with no sharers", d.name, line)
			}
		}
		if e.sharers >= 1<<d.agents {
			return fmt.Errorf("%s: line %d has sharers beyond agent count", d.name, line)
		}
	}
	return nil
}
