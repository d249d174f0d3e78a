// Package chiplet models the physical construction of the MI300 package
// (§V): die outlines and floorplans, hybrid-bond pad (BPM) and TSV site
// coordinates, IOD mirroring and rotation, the signal-TSV replication that
// lets non-mirrored CCDs/XCDs land on mirrored IODs (Fig. 9), the uniform
// power/ground TSV grid shared by both chiplet types (Fig. 10), and the
// USR PHY TX/RX pairing across adjacent IODs. Everything is exact integer
// micrometer geometry, so alignment checks are equality, not epsilon.
package chiplet

import (
	"fmt"
	"sort"
)

// Point is a position in micrometers.
type Point struct {
	X, Y int
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Rect is an axis-aligned rectangle (micrometers), origin at lower-left.
type Rect struct {
	X, Y, W, H int
}

// Contains reports whether p lies within r (inclusive lower, exclusive
// upper edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X && p.X < r.X+r.W && p.Y >= r.Y && p.Y < r.Y+r.H
}

// Center reports the rectangle's center.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// Area reports the area in µm².
func (r Rect) Area() int64 { return int64(r.W) * int64(r.H) }

// Overlaps reports whether two rectangles intersect with positive area.
func (r Rect) Overlaps(o Rect) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// Orientation describes how a die instance is placed relative to its
// physical design: optionally mirrored (a distinct tapeout, §V.C) and
// optionally rotated 180° (a placement choice).
type Orientation struct {
	Mirrored bool // mirrored physical design (about the vertical axis)
	Rot180   bool // placed rotated 180°
}

// String names the orientation.
func (o Orientation) String() string {
	switch {
	case o.Mirrored && o.Rot180:
		return "mirrored+rot180"
	case o.Mirrored:
		return "mirrored"
	case o.Rot180:
		return "rot180"
	default:
		return "normal"
	}
}

// AllOrientations enumerates the four placements.
func AllOrientations() []Orientation {
	return []Orientation{
		{},
		{Mirrored: true},
		{Rot180: true},
		{Mirrored: true, Rot180: true},
	}
}

// Apply transforms a design-coordinate point into placed coordinates for a
// die of size w×h under the orientation. Mirroring reflects about the
// vertical center line; rotation maps (x,y) to (w-x, h-y). Both are
// involutions, and together they commute.
func (o Orientation) Apply(p Point, w, h int) Point {
	if o.Mirrored {
		p.X = w - p.X
	}
	if o.Rot180 {
		p.X = w - p.X
		p.Y = h - p.Y
	}
	return p
}

// ApplyRect transforms a design-coordinate rectangle into placed
// coordinates.
func (o Orientation) ApplyRect(r Rect, w, h int) Rect {
	a := o.Apply(Point{r.X, r.Y}, w, h)
	b := o.Apply(Point{r.X + r.W, r.Y + r.H}, w, h)
	if a.X > b.X {
		a.X, b.X = b.X, a.X
	}
	if a.Y > b.Y {
		a.Y, b.Y = b.Y, a.Y
	}
	return Rect{a.X, a.Y, b.X - a.X, b.Y - a.Y}
}

// Compose returns the orientation equivalent to applying first o, then p.
func (o Orientation) Compose(p Orientation) Orientation {
	return Orientation{
		Mirrored: o.Mirrored != p.Mirrored,
		Rot180:   o.Rot180 != p.Rot180,
	}
}

// PointSet is a set of exact pad/TSV positions.
type PointSet map[Point]struct{}

// Add inserts p.
func (s PointSet) Add(p Point) { s[p] = struct{}{} }

// Has reports membership.
func (s PointSet) Has(p Point) bool {
	_, ok := s[p]
	return ok
}

// Union merges o into s.
func (s PointSet) Union(o PointSet) {
	for p := range o {
		s[p] = struct{}{}
	}
}

// Len reports the set size.
func (s PointSet) Len() int { return len(s) }

// MissingFrom returns the points of s absent from super, sorted by X then
// Y (empty slice when s ⊆ super).
func (s PointSet) MissingFrom(super PointSet) []Point {
	var missing []Point
	for p := range s {
		if !super.Has(p) {
			missing = append(missing, p)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		a, b := missing[i], missing[j]
		return a.X < b.X || a.X == b.X && a.Y < b.Y
	})
	return missing
}

// Lattice is a uniform grid of NX×NY points Pitch apart, starting at
// Origin. It answers membership by arithmetic instead of storing points.
type Lattice struct {
	Origin Point
	Pitch  int
	NX, NY int
}

// Len reports the number of points.
func (g Lattice) Len() int { return g.NX * g.NY }

// At returns the point in column i and row j.
func (g Lattice) At(i, j int) Point {
	return Point{g.Origin.X + i*g.Pitch, g.Origin.Y + j*g.Pitch}
}

// Has reports whether p is a lattice point.
func (g Lattice) Has(p Point) bool {
	dx, dy := p.X-g.Origin.X, p.Y-g.Origin.Y
	return dx >= 0 && dy >= 0 && dx%g.Pitch == 0 && dy%g.Pitch == 0 &&
		dx/g.Pitch < g.NX && dy/g.Pitch < g.NY
}

// Grid returns a uniform grid of points with the given pitch, centered in
// the w×h area: the P/G TSV planning pattern of §V.D. Centering makes the
// grid invariant under mirroring and 180° rotation, which is exactly the
// property that lets one grid serve every IOD/chiplet permutation.
func Grid(w, h, pitch int) Lattice {
	if pitch <= 0 {
		panic(fmt.Sprintf("chiplet: invariant violated: grid pitch must be positive (got %d)", pitch))
	}
	nx := max(w/pitch, 0)
	ny := max(h/pitch, 0)
	return Lattice{
		Origin: Point{(w - (nx-1)*pitch) / 2, (h - (ny-1)*pitch) / 2},
		Pitch:  pitch,
		NX:     nx,
		NY:     ny,
	}
}
