package chiplet

import (
	"fmt"
	"sort"
	"sync"
)

// Edge identifies a die edge in placed coordinates.
type Edge int

const (
	East Edge = iota
	West
	North
	South
)

// String names the edge.
func (e Edge) String() string {
	return [...]string{"east", "west", "north", "south"}[e]
}

// Opposite returns the facing edge.
func (e Edge) Opposite() Edge {
	switch e {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	default:
		return North
	}
}

// USRLane is one lane of an ultra-short-reach PHY on a die edge: its
// position along the edge and its direction. Transmit lanes must land
// opposite receive lanes on the adjacent IOD; the mirrored IOD tapeout
// swaps TX and RX modules to preserve this (Fig. 9 arrows).
type USRLane struct {
	Pos int // coordinate along the edge (y for E/W edges, x for N/S)
	TX  bool
}

// ComputeKind selects which chiplet configuration sits on an IOD.
type ComputeKind int

const (
	// ComputeXCD stacks two XCDs on the IOD.
	ComputeXCD ComputeKind = iota
	// ComputeCCD stacks three CCDs on the IOD.
	ComputeCCD
)

// String names the compute kind.
func (c ComputeKind) String() string {
	if c == ComputeXCD {
		return "2xXCD"
	}
	return "3xCCD"
}

// IODDesign is the single IOD physical design (§V.C: one design, of which
// two instances are mirrored). It carries the superset of chiplet landing
// slots (Fig. 8c), the computed signal-TSV site set with mirroring
// redundancy (Fig. 9), the uniform P/G TSV grid (Fig. 10), USR lanes on
// the east and south design edges, and HBM PHYs on the west design edge.
type IODDesign struct {
	W, H int

	xcdSlots []Rect // design coordinates
	ccdSlots []Rect
	xcdDie   *DieSpec
	ccdDie   *DieSpec

	// SignalTSVs is the full design-coordinate site set, including the
	// redundant sites that only mirrored instances use. Every design
	// shares one set: it is read-only.
	SignalTSVs PointSet
	// PGPitch is the power/ground TSV grid pitch.
	PGPitch int

	// usrEast / usrSouth are the design-coordinate USR lanes.
	usrEast  []USRLane
	usrSouth []USRLane
	// HBMPHYs are the design-coordinate HBM interface regions (west edge).
	HBMPHYs []Rect
}

// xcdOrientPattern and ccdOrientPattern give chiplet orientations by
// placed left-to-right order: one of the two XCDs and two of the three
// CCDs are rotated 180° (§V.B, Fig. 8).
var (
	xcdOrientPattern = []Orientation{{}, {Rot180: true}}
	ccdOrientPattern = []Orientation{{Rot180: true}, {}, {Rot180: true}}
)

// NewIODDesign constructs the IOD design with its signal TSV site set:
// the union of every pad footprint required by both compute kinds (the
// superset of interfaces), on both the normal and mirrored tapeouts (the
// TSV replication of Fig. 9). The set depends on nothing a caller passes,
// so it is built once per process and shared, read-only, by every design.
func NewIODDesign() *IODDesign {
	d := newIODDesign()
	d.SignalTSVs = signalTSVs()
	return d
}

// signalTSVs returns the shared signal TSV site set, building it from the
// default design on first use.
var signalTSVs = sync.OnceValue(func() PointSet {
	d := newIODDesign()
	sites := make(PointSet)
	for _, mirrored := range []bool{false, true} {
		for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
			for _, pc := range d.PlacedChiplets(Orientation{Mirrored: mirrored}, kind) {
				for p := range pc.Pads {
					// Map placed coordinates back into the design
					// database (mirroring is an involution).
					sites.Add(Orientation{Mirrored: mirrored}.Apply(p, d.W, d.H))
				}
			}
		}
	}
	return sites
})

// newIODDesign constructs the IOD design without its signal TSV sites.
func newIODDesign() *IODDesign {
	d := &IODDesign{
		W: 24000, H: 20000,
		xcdDie: XCDDie(), ccdDie: CCDDie(),
		xcdSlots: []Rect{
			{X: 800, Y: 5000, W: 11000, H: 8500},
			{X: 12200, Y: 5000, W: 11000, H: 8500},
		},
		ccdSlots: []Rect{
			{X: 1200, Y: 7000, W: 7000, H: 6000},
			{X: 8500, Y: 7000, W: 7000, H: 6000},
			{X: 15800, Y: 7000, W: 7000, H: 6000},
		},
		PGPitch: 100,
		HBMPHYs: []Rect{
			{X: 0, Y: 500, W: 600, H: 9000},
			{X: 0, Y: 10500, W: 600, H: 9000},
		},
	}
	for k := 0; k < 16; k++ {
		d.usrEast = append(d.usrEast, USRLane{Pos: 2000 + k*1000, TX: k%2 == 0})
	}
	for k := 0; k < 20; k++ {
		d.usrSouth = append(d.usrSouth, USRLane{Pos: 2000 + k*1000, TX: k%2 == 0})
	}
	return d
}

// PlacedChiplet is one chiplet instance on an IOD in placed-local
// coordinates.
type PlacedChiplet struct {
	Die    *DieSpec
	Rect   Rect
	Orient Orientation
	Pads   PointSet
}

// PlacedChiplets reports the chiplet placements for an IOD instance with
// the given orientation and compute kind, in placed-local coordinates.
// Chiplets are never mirrored (§V.C); their left-to-right orientation
// pattern is fixed, and a 180°-rotated IOD carries its chiplets around
// rigidly.
func (d *IODDesign) PlacedChiplets(o Orientation, kind ComputeKind) []PlacedChiplet {
	placed := d.placeChiplets(o, kind)
	for i := range placed {
		pc := &placed[i]
		pc.Pads = pc.Die.PlacedPads(Point{pc.Rect.X, pc.Rect.Y}, pc.Orient)
	}
	return placed
}

// placeChiplets is PlacedChiplets without the pads.
func (d *IODDesign) placeChiplets(o Orientation, kind ComputeKind) []PlacedChiplet {
	slots, die, pattern := d.xcdSlots, d.xcdDie, xcdOrientPattern
	if kind == ComputeCCD {
		slots, die, pattern = d.ccdSlots, d.ccdDie, ccdOrientPattern
	}
	// First place under mirroring only, assigning the orientation pattern
	// by placed left-to-right order.
	mirrorOnly := Orientation{Mirrored: o.Mirrored}
	placed := make([]PlacedChiplet, 0, len(slots))
	for _, s := range slots {
		placed = append(placed, PlacedChiplet{Die: die, Rect: mirrorOnly.ApplyRect(s, d.W, d.H)})
	}
	sort.Slice(placed, func(i, j int) bool { return placed[i].Rect.X < placed[j].Rect.X })
	for i := range placed {
		placed[i].Orient = pattern[i]
	}
	// A rotated IOD rotates the whole stack rigidly.
	if o.Rot180 {
		rot := Orientation{Rot180: true}
		for i := range placed {
			placed[i].Rect = rot.ApplyRect(placed[i].Rect, d.W, d.H)
			placed[i].Orient = placed[i].Orient.Compose(rot)
		}
	}
	return placed
}

// PGGrid reports the uniform power/ground TSV grid (design == placed
// coordinates for any orientation iff the grid is invariant; see
// CheckPGInvariance).
func (d *IODDesign) PGGrid() Lattice { return Grid(d.W, d.H, d.PGPitch) }

// CheckAlignment verifies that for an IOD instance with orientation o and
// compute kind, every chiplet signal pad lands on a TSV site and every
// P/G grid point under a chiplet footprint exists in the grid (trivially
// true when the grid is orientation-invariant). It returns the first
// misalignment found.
func (d *IODDesign) CheckAlignment(o Orientation, kind ComputeKind) error {
	for _, pc := range d.PlacedChiplets(o, kind) {
		if missing := d.missingSites(o, pc.Pads); len(missing) > 0 {
			return fmt.Errorf("chiplet: %s (%s) on %s IOD: %d pads missing TSV sites (first %v)",
				pc.Die.Name, pc.Orient, o, len(missing), missing[0])
		}
	}
	return nil
}

// missingSites returns the pads, in the placed coordinates of an IOD
// instance with orientation o, that land on no signal TSV site, sorted by
// X then Y. Every orientation is an involution, so a placed pad lies on a
// placed site iff its image under o is a design site: the check needs no
// placed copy of the site set.
func (d *IODDesign) missingSites(o Orientation, pads PointSet) []Point {
	var missing []Point
	for p := range pads {
		if !d.SignalTSVs.Has(o.Apply(p, d.W, d.H)) {
			missing = append(missing, p)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		a, b := missing[i], missing[j]
		return a.X < b.X || a.X == b.X && a.Y < b.Y
	})
	return missing
}

// RedundantSites reports the TSV sites that no normal-orientation instance
// uses under either compute kind — the "red circle" replication of Fig. 9
// that exists solely so non-mirrored chiplets can land on mirrored IODs.
func (d *IODDesign) RedundantSites() PointSet {
	used := make(PointSet)
	for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
		for _, pc := range d.PlacedChiplets(Orientation{}, kind) {
			used.Union(pc.Pads)
		}
	}
	red := make(PointSet)
	for p := range d.SignalTSVs {
		if !used.Has(p) {
			red.Add(p)
		}
	}
	return red
}

// CheckPGInvariance verifies the P/G grid maps onto itself under every
// orientation — the §V.D property that one uniform grid serves every
// permutation of mirrored/rotated IOD, CCD, and XCD. Mirroring reflects
// x about the die's centre line and rotation reflects both axes, so a
// non-empty grid is invariant iff it sits centred on both axes:
// 2·Origin + (N−1)·Pitch equals the die's extent. That decides it in O(1);
// only a grid that fails is walked, row-major, to name its first point
// with an image off the grid.
func (d *IODDesign) CheckPGInvariance() error {
	g := d.PGGrid()
	if g.Len() == 0 || g.centred(d.W, d.H) {
		return nil
	}
	orients := AllOrientations()
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			p := g.At(i, j)
			for _, o := range orients {
				if !g.Has(o.Apply(p, d.W, d.H)) {
					return fmt.Errorf("chiplet: P/G TSV %v not invariant under %s", p, o)
				}
			}
		}
	}
	return nil
}

// PlacedUSR reports the USR lanes of an instance by placed edge. Mirrored
// tapeouts have their TX and RX modules swapped (§V.C) so that every TX
// always faces an RX on the neighbor.
func (d *IODDesign) PlacedUSR(o Orientation) map[Edge][]USRLane {
	out := map[Edge][]USRLane{}
	place := func(designEdge Edge, lanes []USRLane) {
		edge := designEdge
		for _, l := range lanes {
			pos := l.Pos
			tx := l.TX
			if o.Mirrored {
				tx = !tx // mirrored tapeout swaps TX/RX modules
				switch designEdge {
				case East:
					edge = West
				case West:
					edge = East
				default:
					edge = designEdge
					pos = d.W - pos // N/S lanes mirror along x
				}
			}
			if o.Rot180 {
				switch edge {
				case East:
					edge, pos = West, d.H-pos
				case West:
					edge, pos = East, d.H-pos
				case North:
					edge, pos = South, d.W-pos
				case South:
					edge, pos = North, d.W-pos
				}
			}
			out[edge] = append(out[edge], USRLane{Pos: pos, TX: tx})
			edge = designEdge
		}
	}
	place(East, d.usrEast)
	place(South, d.usrSouth)
	for e := range out {
		lanes := out[e]
		sort.Slice(lanes, func(i, j int) bool { return lanes[i].Pos < lanes[j].Pos })
	}
	return out
}

// PlacedHBMPHYs reports the HBM PHY regions in placed coordinates.
func (d *IODDesign) PlacedHBMPHYs(o Orientation) []Rect {
	out := make([]Rect, 0, len(d.HBMPHYs))
	for _, r := range d.HBMPHYs {
		out = append(out, o.ApplyRect(r, d.W, d.H))
	}
	return out
}

// CheckUSRPairing verifies that two adjacent IOD instances present
// complementary lanes on their facing edges: equal counts, equal
// positions, and TX opposite RX for every lane. edgeA is the edge of a
// facing b.
func CheckUSRPairing(a *IODDesign, oa Orientation, edgeA Edge, b *IODDesign, ob Orientation) error {
	lanesA := a.PlacedUSR(oa)[edgeA]
	lanesB := b.PlacedUSR(ob)[edgeA.Opposite()]
	if len(lanesA) == 0 {
		return fmt.Errorf("chiplet: no USR lanes on %s edge (%s IOD)", edgeA, oa)
	}
	if len(lanesA) != len(lanesB) {
		return fmt.Errorf("chiplet: USR lane count mismatch %s/%s: %d vs %d",
			edgeA, edgeA.Opposite(), len(lanesA), len(lanesB))
	}
	for i := range lanesA {
		la, lb := lanesA[i], lanesB[i]
		if la.Pos != lb.Pos {
			return fmt.Errorf("chiplet: USR lane %d misaligned: %d vs %d", i, la.Pos, lb.Pos)
		}
		if la.TX == lb.TX {
			dir := "RX"
			if la.TX {
				dir = "TX"
			}
			return fmt.Errorf("chiplet: USR lane %d at %d: %s faces %s", i, la.Pos, dir, dir)
		}
	}
	return nil
}
