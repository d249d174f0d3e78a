package chiplet

import (
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
