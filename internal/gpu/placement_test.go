package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// refEarliestCUSlot is the scan the placement tree replaced, kept as the
// test reference: over every enabled CU, the later of its soonest-free
// slot among the first occ and its ALU horizon; the lowest CU wins ties.
func refEarliestCUSlot(x *XCD, occ int) (*CU, int) {
	var best *CU
	bestSlot := 0
	var bestKey sim.Time
	for i := range x.cus {
		c := &x.cus[i]
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

// placementCUCounts are the XCD sizes the differential covers: one CU,
// MI300A's 38 enabled of 40, and a 110-CU die. None past 1 is a power
// of two, so padding leaves take part in every tree.
var placementCUCounts = []int{1, 38, 40, 110}

// runPlacementDiff drives an XCD's placement tree and the reference scan
// through one history decoded from prog and fails at the first step
// where they pick a different CU or slot. Three header bytes choose the
// CU count, how many CUs are harvested, the first call's occupancy and
// the range completion times are drawn from: a range of 1 or 3
// picoseconds forces equal keys, so the tie-breaking is checked. Each following byte is one op: a new kernel
// call at occupancy 1-16; DisableCU, DisableRandomCUs, ResetStats or a
// scramble of every CU's horizons, each followed by a new call as
// executeWorkgroups would rebuild; or a placement, after which the
// placed slot and (half the time) the CU's ALU horizon take arbitrary
// new values.
func runPlacementDiff(t testing.TB, prog []byte) {
	if len(prog) < 3 {
		return
	}
	physical := placementCUCounts[int(prog[0])%len(placementCUCounts)]
	spec := *config.MI300A().XCD
	spec.PhysicalCUs = physical
	spec.EnabledCUs = physical - int(prog[1])%(physical+1)
	span := []int{1, 3, 1000, 1 << 40}[prog[2]%4]
	rng := sim.NewRNG(uint64(prog[2]))
	x := NewXCD(0, &spec, rng)
	draw := func() sim.Time { return sim.Time(rng.Intn(span)) }

	occ := 1
	call := func(o int) {
		occ = o
		x.place.rebuild(x, occ)
	}
	call(1 + int(prog[2]>>4))
	for step, b := range prog[3:] {
		switch b % 16 {
		case 0:
			call(1 + int(b>>4))
			continue
		case 1:
			x.DisableCU(rng.Intn(physical))
			call(occ)
			continue
		case 2:
			x.DisableRandomCUs(1+int(b>>6), rng)
			call(occ)
			continue
		case 3:
			x.ResetStats()
			call(occ)
			continue
		case 4:
			for i := range x.cus {
				c := &x.cus[i]
				for s := range c.slotFree {
					c.slotFree[s] = draw()
				}
				x.aluFree[c.Index] = draw()
			}
			call(occ)
			continue
		}
		cu, slot := x.place.best(x)
		wantCU, wantSlot := refEarliestCUSlot(x, occ)
		if cu != wantCU || slot != wantSlot {
			t.Fatalf("%d CUs (%d enabled), occupancy %d, step %d: tree places on %s slot %d, scan on %s slot %d",
				physical, x.EnabledCUs(), occ, step, cuName(cu), slot, cuName(wantCU), wantSlot)
		}
		if cu == nil {
			continue
		}
		cu.slotFree[slot] = draw()
		if rng.Intn(2) == 0 {
			x.aluFree[cu.Index] = draw()
		}
		x.place.update(x, cu.Index)
	}
}

func cuName(c *CU) string {
	if c == nil {
		return "no CU"
	}
	return fmt.Sprintf("CU %d", c.Index)
}

// TestPlacementMatchesScan checks the placement tree against the
// reference scan for every CU count, harvested sets from none to all,
// every occupancy from 1 to 16 and every time range, over random
// histories that disable CUs, reset stats and rescramble horizons
// between kernel calls.
func TestPlacementMatchesScan(t *testing.T) {
	for ci, physical := range placementCUCounts {
		for _, harvested := range []int{0, 2, physical - 1, physical} {
			for occ := 1; occ <= maxOccupancy; occ++ {
				for span := 0; span < 4; span++ {
					prog := make([]byte, 3+600)
					rand.New(rand.NewSource(int64(ci*1e6 + harvested*1e3 + occ*10 + span))).Read(prog[3:])
					prog[0], prog[1] = byte(ci), byte(harvested)
					prog[2] = byte((occ-1)<<4 | span)
					runPlacementDiff(t, prog)
				}
			}
		}
	}
}

func FuzzPlacementDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 0xf1, 5, 5, 5, 5, 0x70, 5, 5, 1, 5, 5, 3, 5, 5})
	f.Add([]byte{3, 0, 0x02, 5, 6, 7, 8, 4, 9, 10, 2, 11, 12, 0xf0, 13, 14})
	f.Add([]byte{0, 1, 0x33, 5, 5, 3, 5, 5})
	f.Fuzz(func(t *testing.T, prog []byte) { runPlacementDiff(t, prog) })
}
