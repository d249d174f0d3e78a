package gpu

import (
	"fmt"
	"strconv"

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
// contexts and LDS capacity); its XCD tracks when each workgroup slot
// frees up (see cuTimes).
type CU struct {
	Index    int
	Disabled bool // harvested for yield (§IV.B)
}

// cuTimes is one CU's timing state: the availability horizon of each
// workgroup slot, and of its arithmetic pipelines. Concurrent workgroup
// slots hide launch overhead and memory latency, but they time-share the
// ALUs.
type cuTimes struct {
	slotFree [maxOccupancy]sim.Time
	aluFree  sim.Time
}

// earliestSlot returns the index of the soonest-free slot among the first
// occ slots.
func (c *cuTimes) earliestSlot(occ int) int {
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
	cus  []CU
	l2   *cache.SetAssoc
	// aceFree models the packet processors' availability.
	aceFree []sim.Time
	stats   Stats
	// times[i] is CU i's slot and ALU horizons, and place finds each
	// workgroup's CU. Both are allocated by the first dispatch and reused
	// by every later one, so an XCD that never runs a kernel holds neither.
	times []cuTimes
	place placeTree
}

// NewXCD builds an XCD from its spec, harvesting CUs deterministically
// using rng: PhysicalCUs-EnabledCUs CUs are marked defective/disabled,
// modeling the yield strategy of §IV.B ("up to two CUs can be defective").
func NewXCD(id int, spec *config.XCDSpec, rng *sim.RNG) *XCD {
	x := &XCD{
		ID:      id,
		Spec:    spec,
		l2:      cache.NewSetAssoc("xcd"+strconv.Itoa(id)+".l2", spec.L2Bytes, config.CacheLineSize, 16),
		aceFree: make([]sim.Time, spec.ACEs),
		cus:     make([]CU, spec.PhysicalCUs),
	}
	for i := range x.cus {
		x.cus[i].Index = i
	}
	toDisable := spec.PhysicalCUs - spec.EnabledCUs
	if rng == nil {
		rng = sim.NewRNG(uint64(id) + 1)
	}
	for toDisable > 0 {
		c := &x.cus[rng.Intn(len(x.cus))]
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
	for i := range x.cus {
		if !x.cus[i].Disabled {
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
	for i := range x.cus {
		if x.cus[i].Disabled {
			out = append(out, x.cus[i].Index)
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
		c := &x.cus[rng.Intn(len(x.cus))]
		if !c.Disabled {
			c.Disabled = true
			disabled++
		}
	}
	return disabled
}

// CUs returns the CU list (including disabled ones).
func (x *XCD) CUs() []CU { return x.cus }

// Occupancy reports, at simulated time now, how many enabled CUs have at
// least one workgroup slot occupied and how many slots are occupied in
// all (the telemetry busy-CU and in-flight gauges).
func (x *XCD) Occupancy(now sim.Time) (busyCUs, inFlight int) {
	for i := range x.times {
		if x.cus[i].Disabled {
			continue
		}
		busy := 0
		for _, free := range x.times[i].slotFree {
			if free > now {
				busy++
			}
		}
		inFlight += busy
		if busy > 0 {
			busyCUs++
		}
	}
	return busyCUs, inFlight
}

// L2 exposes the shared L2 model.
func (x *XCD) L2() *cache.SetAssoc { return x.l2 }

// Release hands the L2's tag storage back (see cache.SetAssoc.Release).
func (x *XCD) Release() { x.l2.Release() }

// Stats returns a copy of the counters.
func (x *XCD) Stats() Stats { return x.stats }

// ResetStats zeroes counters and CU availability.
func (x *XCD) ResetStats() {
	x.stats = Stats{}
	clear(x.times)
	clear(x.aceFree)
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

// executeWorkgroups runs the workgroups of wgs, in ascending order, on
// this XCD starting at start, and returns when the last one retires.
// Workgroups are placed greedily on the earliest-free enabled CU; each
// runs functionally (if the kernel has a body) and occupies its CU for
// max(compute, memory) time.
func (x *XCD) executeWorkgroups(env *ExecEnv, start sim.Time, k *KernelSpec, wgs wgRange, wgSize int, kernarg int64) sim.Time {
	if wgs.count == 0 {
		return start
	}
	// Occupancy is per kernel, and CUs are disabled or reset only between
	// calls, so the placement tree is rebuilt here and then kept current
	// by refreshing the placed CU's leaf after each workgroup.
	x.arm(Occupancy(x.Spec, wgSize, k.LDSBytesPerGroup))
	end := start
	for j, wg := 0, wgs.first; j < wgs.count; j, wg = j+1, wg+wgs.stride {
		cu, slot := x.place.best(x)
		if cu == nil {
			panic(fmt.Sprintf("gpu: invariant violated: dispatch reached xcd%d with no enabled CUs (offline XCDs must be filtered by the partition)", x.ID))
		}
		ct := &x.times[cu.Index]
		t := start
		if ct.slotFree[slot] > t {
			t = ct.slotFree[slot]
		}
		t += launchOverhead

		if k.Body != nil {
			k.Body(env, x.ID, wg, wgSize, kernarg)
		}

		compute := k.computeTime(x.Spec, wgSize)
		rd, wr := k.trafficBytes(wgSize)
		if k.TileBytes > 0 && k.TileOf != nil {
			// Tile reads filter through this XCD's L2: hits stay on
			// die, misses add HBM-path traffic.
			rd += int64(x.l2.ReadRange(k.TileOf(wg), k.TileBytes)) * x.l2.LineSize
		}
		// Concurrent workgroup slots hide launch overhead and memory
		// time, but arithmetic serializes on the CU's pipelines.
		aluStart := max(t, ct.aluFree)
		aluEnd := aluStart + compute
		ct.aluFree = aluEnd

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

		ct.slotFree[slot] = done
		x.place.update(x, cu.Index)
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

// arm readies the XCD for a kernel of occupancy occ: the first dispatch
// allocates the CUs' horizons, and every dispatch rebuilds the placement
// tree from them.
func (x *XCD) arm(occ int) {
	if x.times == nil {
		x.times = make([]cuTimes, len(x.cus))
	}
	x.place.rebuild(x, occ)
}

// placeTree is a tournament tree over an XCD's CUs that finds, in
// O(log CUs), the enabled CU (and slot) where a new workgroup would
// actually begin executing first: the later of its soonest-free slot
// among the kernel's occ slots and its ALU horizon. That choice is what
// makes the ACE's placement load-balance across CUs instead of stacking
// one CU's slots.
//
// Leaf i (node size+i) is CU i; padding leaves past the last CU never
// win. Each internal node holds the leaf that wins its subtree: an
// enabled CU beats a disabled one, then the earlier key wins, then the
// lower CU index. Each leaf's slot is its CU's lowest slot among those
// free earliest, so the root is exactly the lowest CU, then lowest slot,
// that a scan of every CU and slot would pick.
type placeTree struct {
	size int        // leaves: the smallest power of two ≥ the CU count
	occ  int        // slots per CU the current kernel may use
	win  []int32    // win[n]: the leaf winning node n's subtree (n ≥ 1)
	key  []sim.Time // per leaf: when a workgroup placed there would begin
	slot []uint8    // per leaf: the CU's soonest-free slot, or deadLeaf
}

// deadLeaf marks a disabled CU's or a padding leaf's slot.
const deadLeaf = 0xff

// rebuild sets every leaf from x's CUs for a kernel of occupancy occ and
// recomputes every internal node: one pass over every CU's slots, the
// cost of a single scan. The first call sizes the tree; padding leaves
// stay dead.
func (t *placeTree) rebuild(x *XCD, occ int) {
	if t.win == nil {
		t.size = 1
		for t.size < len(x.cus) {
			t.size <<= 1
		}
		t.win = make([]int32, 2*t.size)
		t.key = make([]sim.Time, t.size)
		t.slot = make([]uint8, t.size)
		for i := range t.slot {
			t.slot[i] = deadLeaf
			t.win[t.size+i] = int32(i)
		}
	}
	t.occ = occ
	for i := range x.cus {
		t.setLeaf(x, i)
	}
	for n := t.size - 1; n >= 1; n-- {
		t.win[n] = t.winner(t.win[2*n], t.win[2*n+1])
	}
}

// update refreshes CU i's leaf after its slot or ALU horizon moved and
// replays its path to the root.
func (t *placeTree) update(x *XCD, i int) {
	t.setLeaf(x, i)
	for n := (t.size + i) / 2; n >= 1; n /= 2 {
		t.win[n] = t.winner(t.win[2*n], t.win[2*n+1])
	}
}

// best returns the winning CU and its slot, or nil when no CU is enabled.
func (t *placeTree) best(x *XCD) (*CU, int) {
	w := t.win[1]
	if t.slot[w] == deadLeaf {
		return nil, 0
	}
	return &x.cus[w], int(t.slot[w])
}

// setLeaf sets CU i's key and slot, or marks its leaf dead when the CU
// is disabled.
func (t *placeTree) setLeaf(x *XCD, i int) {
	if x.cus[i].Disabled {
		t.slot[i] = deadLeaf
		return
	}
	c := &x.times[i]
	s := c.earliestSlot(t.occ)
	t.key[i], t.slot[i] = max(c.slotFree[s], c.aluFree), uint8(s)
}

// winner returns whichever of leaves a < b wins the match.
func (t *placeTree) winner(a, b int32) int32 {
	if t.slot[b] == deadLeaf {
		return a
	}
	if t.slot[a] == deadLeaf || t.key[b] < t.key[a] {
		return b
	}
	return a
}
