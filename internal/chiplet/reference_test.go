package chiplet

import (
	"fmt"
	"math/rand"
	"testing"
)

// refGrid is the original map-building Grid, kept verbatim as the
// executable spec the arithmetic Lattice is checked against.
func refGrid(w, h, pitch int) PointSet {
	nx := w / pitch
	ny := h / pitch
	x0 := (w - (nx-1)*pitch) / 2
	y0 := (h - (ny-1)*pitch) / 2
	s := make(PointSet, nx*ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			s.Add(Point{x0 + i*pitch, y0 + j*pitch})
		}
	}
	return s
}

// TestGridMatchesReference compares Len and Has of Grid and refGrid over
// random areas, with odd margins and pitches that do not divide the area:
// on every reference point, on its four orientation images, and on random
// points inside, around and outside the area.
func TestGridMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		pitch := 1 + rng.Intn(40)
		w := rng.Intn(30 * pitch)
		h := rng.Intn(30 * pitch)
		if trial%3 == 0 { // a pitch that divides w and h exactly
			w, h = w/pitch*pitch, h/pitch*pitch
		}
		g, ref := Grid(w, h, pitch), refGrid(w, h, pitch)
		if g.Len() != ref.Len() {
			t.Fatalf("Grid(%d, %d, %d).Len() = %d, reference %d", w, h, pitch, g.Len(), ref.Len())
		}
		probe := func(p Point) {
			if got, want := g.Has(p), ref.Has(p); got != want {
				t.Fatalf("Grid(%d, %d, %d).Has(%v) = %v, reference %v", w, h, pitch, p, got, want)
			}
		}
		for p := range ref {
			for _, o := range AllOrientations() {
				probe(o.Apply(p, w, h))
			}
		}
		for i := 0; i < 200; i++ {
			probe(Point{rng.Intn(3*w+3*pitch+1) - w - pitch, rng.Intn(3*h+3*pitch+1) - h - pitch})
		}
	}
}

// refCheckPGInvariance is the per-point P/G check CheckPGInvariance
// replaced, kept verbatim as its executable spec: it probes every grid
// point under every orientation, row-major.
func refCheckPGInvariance(d *IODDesign) error {
	g := d.PGGrid()
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

// TestPGInvarianceMatchesWalk compares CheckPGInvariance with the walk it
// replaced, nil against error and error text, over random die sizes and
// pitches: margins that are odd on either axis, both or neither, pitches
// that divide the die or not, dies smaller than one pitch (an empty grid),
// and the IOD's own 24×20 mm die at 100 µm.
func TestPGInvarianceMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(w, h, pitch int) bool {
		d := &IODDesign{W: w, H: h, PGPitch: pitch}
		got, want := d.CheckPGInvariance(), refCheckPGInvariance(d)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("W=%d H=%d pitch=%d: CheckPGInvariance = %v, walk %v", w, h, pitch, got, want)
		}
		return got == nil
	}
	check(24000, 20000, 100)
	var invariant, broken int
	for trial := 0; trial < 2000; trial++ {
		pitch := 1 + rng.Intn(40)
		w := rng.Intn(30*pitch) - pitch
		h := rng.Intn(30*pitch) - pitch
		if trial%3 == 0 { // a pitch that divides w and h exactly
			w, h = w/pitch*pitch, h/pitch*pitch
		}
		if check(w, h, pitch) {
			invariant++
		} else {
			broken++
		}
	}
	if invariant < 100 || broken < 100 {
		t.Fatalf("%d invariant and %d broken grids: too few of one kind to compare", invariant, broken)
	}
}
