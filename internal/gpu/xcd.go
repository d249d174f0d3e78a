package gpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/sim"
)

// launchOverhead is the fixed per-workgroup cost of ACE workgroup creation:
// finding CU space, initializing wavefront register state, and handing the
// program counter to the CU (§VI.A).
const launchOverhead = 500 * sim.Nanosecond

// maxOccupancy caps concurrent workgroups per CU (hardware workgroup
// context limit).
const maxOccupancy = 16

// CU is one compute unit: a highly-threaded processor with its own L1D.
// A CU hosts several workgroups concurrently (bounded by wavefront
// contexts and LDS capacity); the model tracks the availability horizon
// of each workgroup slot.
type CU struct {
	Index    int
	Disabled bool // harvested for yield (§IV.B)
	slotFree [maxOccupancy]sim.Time
	wgDone   uint64
}

// earliestSlot returns the index of the soonest-free slot among the first
// occ slots.
func (c *CU) earliestSlot(occ int) int {
	best := 0
	for i := 1; i < occ && i < maxOccupancy; i++ {
		if c.slotFree[i] < c.slotFree[best] {
			best = i
		}
	}
	return best
}

// Occupancy reports how many workgroups of the given shape one CU hosts
// concurrently: bounded by wavefront contexts (32 waves per CU; a
// workgroup needs ceil(wgSize/wavefront) of them), by LDS capacity, and
// by the hardware workgroup-context cap.
func Occupancy(spec *config.XCDSpec, wgSize int, ldsPerGroup int64) int {
	waveSize := spec.WavefrontSize
	if waveSize <= 0 {
		waveSize = 64
	}
	wavesPerWG := (wgSize + waveSize - 1) / waveSize
	if wavesPerWG < 1 {
		wavesPerWG = 1
	}
	occ := 32 / wavesPerWG
	if ldsPerGroup > 0 && spec.LDSBytes > 0 {
		byLDS := int(spec.LDSBytes / ldsPerGroup)
		if byLDS < occ {
			occ = byLDS
		}
	}
	if occ > maxOccupancy {
		occ = maxOccupancy
	}
	if occ < 1 {
		occ = 1
	}
	return occ
}

// Stats accumulates per-XCD execution counters.
type Stats struct {
	PacketsDecoded uint64
	Workgroups     uint64
	Flops          float64
	BytesRead      uint64
	BytesWritten   uint64
	SyncMessages   uint64
	BusyTime       sim.Time
}

// XCD is one accelerator complex die: CUs, shared L2, and 4 ACEs that
// consume AQL packets.
type XCD struct {
	ID   int
	Spec *config.XCDSpec
	cus  []*CU
	l2   *cache.SetAssoc
	// aceFree models the packet processors' availability.
	aceFree []sim.Time
	// aluFree serializes the arithmetic pipelines per CU: concurrent
	// workgroup slots hide launch overhead and memory latency, but they
	// time-share the ALUs.
	aluFree []sim.Time
	stats   Stats
}

// NewXCD builds an XCD from its spec, harvesting CUs deterministically
// using rng: PhysicalCUs-EnabledCUs CUs are marked defective/disabled,
// modeling the yield strategy of §IV.B ("up to two CUs can be defective").
func NewXCD(id int, spec *config.XCDSpec, rng *sim.RNG) *XCD {
	x := &XCD{
		ID:      id,
		Spec:    spec,
		l2:      cache.NewSetAssoc(fmt.Sprintf("xcd%d.l2", id), spec.L2Bytes, config.CacheLineSize, 16),
		aceFree: make([]sim.Time, spec.ACEs),
		aluFree: make([]sim.Time, spec.PhysicalCUs),
	}
	for i := 0; i < spec.PhysicalCUs; i++ {
		x.cus = append(x.cus, &CU{Index: i})
	}
	toDisable := spec.PhysicalCUs - spec.EnabledCUs
	if rng == nil {
		rng = sim.NewRNG(uint64(id) + 1)
	}
	for toDisable > 0 {
		c := x.cus[rng.Intn(len(x.cus))]
		if !c.Disabled {
			c.Disabled = true
			toDisable--
		}
	}
	return x
}

// EnabledCUs reports the number of usable CUs.
func (x *XCD) EnabledCUs() int {
	var n int
	for _, c := range x.cus {
		if !c.Disabled {
			n++
		}
	}
	return n
}

// DisabledCUs reports the indices of harvested/faulted CUs in ascending
// order — the stable identity of the XCD's disabled set, used to check
// harvesting determinism.
func (x *XCD) DisabledCUs() []int {
	var out []int
	for _, c := range x.cus {
		if c.Disabled {
			out = append(out, c.Index)
		}
	}
	return out
}

// DisableCU marks CU i unusable mid-run — a runtime fault rather than a
// manufacturing harvest. In-flight work on the CU is allowed to drain (its
// slot horizons stand); new placement simply skips it. It reports whether
// the CU was newly disabled.
func (x *XCD) DisableCU(i int) bool {
	if i < 0 || i >= len(x.cus) || x.cus[i].Disabled {
		return false
	}
	x.cus[i].Disabled = true
	return true
}

// DisableRandomCUs disables up to n currently-enabled CUs chosen via rng
// (which must not be nil), returning how many were actually disabled. The
// draw sequence is deterministic for a given rng state.
func (x *XCD) DisableRandomCUs(n int, rng *sim.RNG) int {
	disabled := 0
	for disabled < n && x.EnabledCUs() > 0 {
		c := x.cus[rng.Intn(len(x.cus))]
		if !c.Disabled {
			c.Disabled = true
			disabled++
		}
	}
	return disabled
}

// CUs returns the CU list (including disabled ones).
func (x *XCD) CUs() []*CU { return x.cus }

// BusyCUs reports how many enabled CUs still have at least one workgroup
// slot occupied at simulated time now (the telemetry busy-CU gauge).
func (x *XCD) BusyCUs(now sim.Time) int {
	var n int
	for _, c := range x.cus {
		if c.Disabled {
			continue
		}
		for _, free := range c.slotFree {
			if free > now {
				n++
				break
			}
		}
	}
	return n
}

// InFlightWorkgroups counts workgroup slots occupied across enabled CUs at
// simulated time now (the telemetry in-flight gauge).
func (x *XCD) InFlightWorkgroups(now sim.Time) int {
	var n int
	for _, c := range x.cus {
		if c.Disabled {
			continue
		}
		for _, free := range c.slotFree {
			if free > now {
				n++
			}
		}
	}
	return n
}

// L2 exposes the shared L2 model.
func (x *XCD) L2() *cache.SetAssoc { return x.l2 }

// Stats returns a copy of the counters.
func (x *XCD) Stats() Stats { return x.stats }

// ResetStats zeroes counters and CU availability.
func (x *XCD) ResetStats() {
	x.stats = Stats{}
	for _, c := range x.cus {
		c.slotFree = [maxOccupancy]sim.Time{}
		c.wgDone = 0
	}
	for i := range x.aceFree {
		x.aceFree[i] = 0
	}
	for i := range x.aluFree {
		x.aluFree[i] = 0
	}
}

// decode models an ACE reading and decoding an AQL packet (Fig. 13 steps
// ①②): pick the earliest-available ACE and charge the decode latency.
func (x *XCD) decode(now sim.Time) sim.Time {
	const decodeLatency = 200 * sim.Nanosecond
	best := 0
	for i := range x.aceFree {
		if x.aceFree[i] < x.aceFree[best] {
			best = i
		}
	}
	start := now
	if x.aceFree[best] > start {
		start = x.aceFree[best]
	}
	done := start + decodeLatency
	x.aceFree[best] = done
	x.stats.PacketsDecoded++
	return done
}

// executeWorkgroups runs the given flat workgroup IDs on this XCD starting
// at start, and returns when the last one retires. Workgroups are placed
// greedily on the earliest-free enabled CU; each runs functionally (if the
// kernel has a body) and occupies its CU for max(compute, memory) time.
func (x *XCD) executeWorkgroups(env *ExecEnv, start sim.Time, k *KernelSpec, wgIDs []int, wgSize int, kernarg int64) sim.Time {
	if len(wgIDs) == 0 {
		return start
	}
	occ := Occupancy(x.Spec, wgSize, k.LDSBytesPerGroup)
	end := start
	for _, wg := range wgIDs {
		cu, slot := x.earliestCUSlot(occ)
		if cu == nil {
			panic(fmt.Sprintf("gpu: invariant violated: dispatch reached xcd%d with no enabled CUs (offline XCDs must be filtered by the partition)", x.ID))
		}
		t := start
		if cu.slotFree[slot] > t {
			t = cu.slotFree[slot]
		}
		t += launchOverhead

		if k.Body != nil {
			k.Body(env, x.ID, wg, wgSize, kernarg)
		}

		ct := k.computeTime(x.Spec, wgSize)
		rd, wr := k.trafficBytes(wgSize)
		if k.TileBytes > 0 && k.TileOf != nil {
			// Tile reads filter through this XCD's L2: hits stay on
			// die, misses add HBM-path traffic.
			rd += int64(x.l2.ReadRange(k.TileOf(wg), k.TileBytes)) * x.l2.LineSize
		}
		// Concurrent workgroup slots hide launch overhead and memory
		// time, but arithmetic serializes on the CU's pipelines.
		aluStart := t
		if x.aluFree[cu.Index] > aluStart {
			aluStart = x.aluFree[cu.Index]
		}
		aluEnd := aluStart + ct
		x.aluFree[cu.Index] = aluEnd

		// Loads and stores pipeline: both streams issue from t and the
		// workgroup retires when the slower one drains.
		rdDone := env.memTime(t, x.ID, rd, false)
		wrDone := env.memTime(t, x.ID, wr, true)
		done := aluEnd
		if rdDone > done {
			done = rdDone
		}
		if wrDone > done {
			done = wrDone
		}

		cu.slotFree[slot] = done
		cu.wgDone++
		x.stats.Workgroups++
		x.stats.Flops += k.FlopsPerItem * float64(wgSize)
		x.stats.BytesRead += uint64(rd)
		x.stats.BytesWritten += uint64(wr)
		x.stats.BusyTime += done - t
		if done > end {
			end = done
		}
	}
	return end
}

// earliestCUSlot finds the enabled CU (and slot index) where a new
// workgroup would actually begin executing first: the later of the slot's
// availability and the CU's ALU horizon. This is what makes the ACE's
// placement load-balance across CUs instead of stacking one CU's slots.
func (x *XCD) earliestCUSlot(occ int) (*CU, int) {
	var best *CU
	bestSlot := 0
	var bestKey sim.Time
	for _, c := range x.cus {
		if c.Disabled {
			continue
		}
		s := c.earliestSlot(occ)
		key := c.slotFree[s]
		if alu := x.aluFree[c.Index]; alu > key {
			key = alu
		}
		if best == nil || key < bestKey {
			best, bestSlot, bestKey = c, s, key
		}
	}
	return best, bestSlot
}
