package chiplet

import "fmt"

// ComponentKind classifies floorplan components for power/thermal modeling.
type ComponentKind int

const (
	CompXCD ComponentKind = iota
	CompCCD
	CompIOD // IOD fabric/cache area not under a compute chiplet
	CompHBM
	CompHBMPHY
	CompUSRPHY
)

// String names the component kind.
func (k ComponentKind) String() string {
	return [...]string{"XCD", "CCD", "IOD", "HBM", "HBMPHY", "USRPHY"}[k]
}

// Component is one power-dissipating region of the assembled package, in
// package coordinates (µm).
type Component struct {
	Name string
	Kind ComponentKind
	Rect Rect
}

// IODInstance is one of the four IODs in the assembled package.
type IODInstance struct {
	Name    string
	Orient  Orientation
	Offset  Point // package coordinates of the placed die's lower-left
	Compute ComputeKind
}

// Package is an assembled MI300-class module: four IOD instances in a 2×2
// arrangement on a passive interposer, compute chiplets hybrid-bonded on
// top, and eight HBM stacks along the left and right edges (Fig. 6).
type Package struct {
	Name   string
	Design *IODDesign
	IODs   []IODInstance
	HBM    []Rect // package coordinates
}

// usrGap is the die-to-die spacing that USR PHYs can span (§V.A: enabled
// by the tight spacing between adjacent IODs).
const usrGap = 100

// assemble builds the 2×2 IOD arrangement with the orientation plan of
// Fig. 9 — two normal and two mirrored instances, one of each rotated 180°:
//
//	A (normal)          B (mirrored)
//	C (mirrored+rot180) D (rot180)
//
// computeKinds assigns chiplet types per IOD in A,B,C,D order.
func assemble(name string, computeKinds [4]ComputeKind) *Package {
	d := NewIODDesign()
	hbm := HBMDie()
	col0 := hbm.W + usrGap      // left IOD column x
	col1 := col0 + d.W + usrGap // right IOD column x
	row1 := d.H + usrGap        // top IOD row y
	orients := []Orientation{
		{},                             // A: top-left
		{Mirrored: true},               // B: top-right
		{Mirrored: true, Rot180: true}, // C: bottom-left
		{Rot180: true},                 // D: bottom-right
	}
	offsets := []Point{
		{col0, row1}, // A
		{col1, row1}, // B
		{col0, 0},    // C
		{col1, 0},    // D
	}
	p := &Package{Name: name, Design: d}
	for i, n := range []string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"} {
		p.IODs = append(p.IODs, IODInstance{
			Name: n, Orient: orients[i], Offset: offsets[i], Compute: computeKinds[i],
		})
	}
	// Eight HBM stacks: two per IOD along the package's outer left/right
	// edges, each facing one HBM PHY.
	for i, inst := range p.IODs {
		x := 0 // left column stacks sit at x=0
		if inst.Offset.X == col1 {
			x = col1 + d.W + usrGap
		}
		for j, phy := range d.PlacedHBMPHYs(inst.Orient) {
			_ = j
			y := inst.Offset.Y + phy.Y + phy.H/2 - hbm.H/2
			p.HBM = append(p.HBM, Rect{X: x, Y: y, W: hbm.W, H: hbm.H})
		}
		_ = i
	}
	return p
}

// AssembleMI300A builds the MI300A package: three IODs carry XCD pairs
// (six XCDs) and one carries the three CCDs (§IV.A, Fig. 5).
func AssembleMI300A() *Package {
	return assemble("MI300A", [4]ComputeKind{ComputeXCD, ComputeCCD, ComputeXCD, ComputeXCD})
}

// AssembleMI300X builds the MI300X accelerator: the CCD trio is swapped
// for a fourth XCD pair (eight XCDs total), with no other change — the
// modular chiplet swap of §VII / Fig. 16.
func AssembleMI300X() *Package {
	return assemble("MI300X", [4]ComputeKind{ComputeXCD, ComputeXCD, ComputeXCD, ComputeXCD})
}

// adjacency lists the facing IOD pairs in the 2×2 arrangement: index pairs
// with the edge of the first that faces the second.
var adjacency = []struct {
	a, b int
	edge Edge
}{
	{0, 1, East},  // A-B
	{2, 3, East},  // C-D
	{2, 0, North}, // C above^-1 A (C is below A): C's north faces A's south
	{3, 1, North}, // D-B
}

// Validate checks the full physical ruleset: chiplet/TSV alignment on
// every IOD, P/G grid invariance, USR TX/RX pairing on every facing edge,
// HBM stacks present opposite every HBM PHY, and no die overlaps.
func (p *Package) Validate() error {
	if err := p.Design.CheckPGInvariance(); err != nil {
		return err
	}
	for _, inst := range p.IODs {
		if err := p.Design.CheckAlignment(inst.Orient, inst.Compute); err != nil {
			return fmt.Errorf("%s: %w", inst.Name, err)
		}
	}
	for _, adj := range adjacency {
		a, b := p.IODs[adj.a], p.IODs[adj.b]
		if err := CheckUSRPairing(p.Design, a.Orient, adj.edge, p.Design, b.Orient); err != nil {
			return fmt.Errorf("%s/%s: %w", a.Name, b.Name, err)
		}
	}
	// Every HBM PHY must face a stack at its height on the package edge.
	for i, inst := range p.IODs {
		for _, phy := range p.Design.PlacedHBMPHYs(inst.Orient) {
			phyCenter := inst.Offset.Y + phy.Y + phy.H/2
			found := false
			for _, stack := range p.HBM {
				if phyCenter >= stack.Y && phyCenter < stack.Y+stack.H {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("chiplet: %s HBM PHY at y=%d faces no HBM stack", p.IODs[i].Name, phyCenter)
			}
		}
	}
	// No overlapping dies.
	comps := p.Floorplan()
	for i := range comps {
		for j := i + 1; j < len(comps); j++ {
			a, b := comps[i], comps[j]
			// IOD regions legitimately underlie their compute chiplets
			// (3D stacking); only same-level overlaps are errors.
			if a.Kind == CompIOD || b.Kind == CompIOD {
				continue
			}
			if a.Rect.Overlaps(b.Rect) {
				return fmt.Errorf("chiplet: %s overlaps %s", a.Name, b.Name)
			}
		}
	}
	return nil
}

// Bounds reports the package extent.
func (p *Package) Bounds() Rect {
	var maxX, maxY int
	for _, c := range p.Floorplan() {
		if x := c.Rect.X + c.Rect.W; x > maxX {
			maxX = x
		}
		if y := c.Rect.Y + c.Rect.H; y > maxY {
			maxY = y
		}
	}
	return Rect{W: maxX, H: maxY}
}

// Floorplan exports every power-dissipating component in package
// coordinates: compute chiplets, IOD base dies, HBM stacks, and the HBM
// and USR PHY regions whose dissipation shows up so clearly in the
// memory-intensive thermal map (Fig. 12c).
func (p *Package) Floorplan() []Component {
	var out []Component
	d := p.Design
	for i, inst := range p.IODs {
		out = append(out, Component{
			Name: inst.Name, Kind: CompIOD,
			Rect: Rect{X: inst.Offset.X, Y: inst.Offset.Y, W: d.W, H: d.H},
		})
		for j, pc := range d.placeChiplets(inst.Orient, inst.Compute) {
			kind := CompXCD
			if pc.Die.Kind == DieCCD {
				kind = CompCCD
			}
			out = append(out, Component{
				Name: fmt.Sprintf("%s.%s%d", inst.Name, pc.Die.Name, j),
				Kind: kind,
				Rect: Rect{X: inst.Offset.X + pc.Rect.X, Y: inst.Offset.Y + pc.Rect.Y, W: pc.Rect.W, H: pc.Rect.H},
			})
		}
		for j, phy := range d.PlacedHBMPHYs(inst.Orient) {
			out = append(out, Component{
				Name: fmt.Sprintf("%s.hbmphy%d", inst.Name, j),
				Kind: CompHBMPHY,
				Rect: Rect{X: inst.Offset.X + phy.X, Y: inst.Offset.Y + phy.Y, W: phy.W, H: phy.H},
			})
		}
		// USR PHY strips along each facing edge.
		for edge, lanes := range d.PlacedUSR(inst.Orient) {
			if len(lanes) == 0 {
				continue
			}
			lo, hi := lanes[0].Pos, lanes[len(lanes)-1].Pos
			var r Rect
			const depth = 400
			switch edge {
			case East:
				r = Rect{X: d.W - depth, Y: lo, W: depth, H: hi - lo}
			case West:
				r = Rect{X: 0, Y: lo, W: depth, H: hi - lo}
			case North:
				r = Rect{X: lo, Y: d.H - depth, W: hi - lo, H: depth}
			case South:
				r = Rect{X: lo, Y: 0, W: hi - lo, H: depth}
			}
			out = append(out, Component{
				Name: fmt.Sprintf("%s.usr.%s", inst.Name, edge),
				Kind: CompUSRPHY,
				Rect: Rect{X: inst.Offset.X + r.X, Y: inst.Offset.Y + r.Y, W: r.W, H: r.H},
			})
		}
		_ = i
	}
	for i, stack := range p.HBM {
		out = append(out, Component{Name: fmt.Sprintf("HBM%d", i), Kind: CompHBM, Rect: stack})
	}
	return out
}

// XCDCount reports how many XCDs the assembly carries.
func (p *Package) XCDCount() int {
	var n int
	for _, inst := range p.IODs {
		if inst.Compute == ComputeXCD {
			n += 2
		}
	}
	return n
}

// CCDCount reports how many CCDs the assembly carries.
func (p *Package) CCDCount() int {
	var n int
	for _, inst := range p.IODs {
		if inst.Compute == ComputeCCD {
			n += 3
		}
	}
	return n
}
