package chiplet

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestOrientationTransforms(t *testing.T) {
	p := Point{100, 200}
	w, h := 1000, 800
	if got := (Orientation{}).Apply(p, w, h); got != p {
		t.Errorf("identity = %v", got)
	}
	if got := (Orientation{Mirrored: true}).Apply(p, w, h); got != (Point{900, 200}) {
		t.Errorf("mirror = %v", got)
	}
	if got := (Orientation{Rot180: true}).Apply(p, w, h); got != (Point{900, 600}) {
		t.Errorf("rot180 = %v", got)
	}
	if got := (Orientation{Mirrored: true, Rot180: true}).Apply(p, w, h); got != (Point{100, 600}) {
		t.Errorf("mirror+rot = %v", got)
	}
}

// Property: every orientation is an involution when applied twice with the
// same flags... mirror and rot180 are each involutions; applying the full
// orientation twice returns the original point.
func TestOrientationInvolutionProperty(t *testing.T) {
	f := func(x, y uint16, m, r bool) bool {
		w, h := 70000, 50000
		p := Point{int(x), int(y)}
		o := Orientation{Mirrored: m, Rot180: r}
		return o.Apply(o.Apply(p, w, h), w, h) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComposeXorsFlags(t *testing.T) {
	m := Orientation{Mirrored: true}
	r := Orientation{Rot180: true}
	if got := m.Compose(m); got != (Orientation{}) {
		t.Errorf("m∘m = %v", got)
	}
	if got := m.Compose(r); got != (Orientation{Mirrored: true, Rot180: true}) {
		t.Errorf("m∘r = %v", got)
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{10, 10, 100, 50}
	if !r.Overlaps(Rect{100, 40, 20, 20}) {
		t.Error("overlapping rects reported disjoint")
	}
	if r.Overlaps(Rect{110, 10, 20, 20}) {
		t.Error("touching rects reported overlapping")
	}
}

func TestPGGridInvariance(t *testing.T) {
	// §V.D: one uniform P/G TSV grid must line up for every permutation
	// of mirrored/rotated IOD.
	d := NewIODDesign()
	if err := d.CheckPGInvariance(); err != nil {
		t.Fatal(err)
	}
}

// A check that fails names the same first failure on every call: the P/G
// check walks its grid row-major, so a broken grid fails at its origin,
// and the alignment check names the missing pad with the lowest X, then Y.
func TestCheckFailuresAreDeterministic(t *testing.T) {
	pg := NewIODDesign()
	pg.W = 24001 // odd margin: the grid is no longer mirror-symmetric
	rogue := NewIODDesign()
	rogue.xcdDie = &DieSpec{Name: "rogue", Kind: DieXCD, W: 11000, H: 8500,
		SignalPads: padGrid(Point{1501, 1501}, 8, 5, 700)} // 1µm off
	for _, c := range []struct {
		name  string
		check func() error
		want  string
	}{
		{"P/G", pg.CheckPGInvariance, "chiplet: P/G TSV {50 50} not invariant under mirrored"},
		{"alignment", func() error { return rogue.CheckAlignment(Orientation{}, ComputeXCD) },
			"chiplet: rogue (normal) on normal IOD: 40 pads missing TSV sites (first {2301 6501})"},
	} {
		for call := 0; call < 20; call++ {
			if err := c.check(); err == nil || err.Error() != c.want {
				t.Errorf("%s check, call %d = %v, want %q", c.name, call, err, c.want)
				break
			}
		}
	}
}

func TestPGGridDensity(t *testing.T) {
	d := NewIODDesign()
	g := d.PGGrid()
	// 100µm pitch over 24×20mm: 240×200 TSVs.
	if g.Len() != 240*200 {
		t.Errorf("P/G TSVs = %d, want 48000", g.Len())
	}
}

func TestAlignmentAllPermutations(t *testing.T) {
	// The Fig. 9 invariant: non-mirrored CCDs and XCDs land on every
	// mirrored/rotated IOD instance.
	d := NewIODDesign()
	for _, o := range AllOrientations() {
		for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
			if err := d.CheckAlignment(o, kind); err != nil {
				t.Errorf("%s/%s: %v", o, kind, err)
			}
		}
	}
}

func TestRedundantTSVsExist(t *testing.T) {
	// Mirroring support requires extra sites beyond what the normal
	// instance uses (the red circles of Fig. 9)...
	d := NewIODDesign()
	red := d.RedundantSites()
	if red.Len() == 0 {
		t.Fatal("no redundant TSV sites; mirroring support is vacuous")
	}
	// ...and the mirrored instance actually uses some of them.
	usedByMirrored := make(PointSet)
	for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
		for _, pc := range d.PlacedChiplets(Orientation{Mirrored: true}, kind) {
			for p := range pc.Pads {
				usedByMirrored.Add(Orientation{Mirrored: true}.Apply(p, d.W, d.H))
			}
		}
	}
	var hits int
	for p := range red {
		if usedByMirrored.Has(p) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("mirrored instance uses none of the redundant sites")
	}
}

func TestAlignmentFailsForForeignDie(t *testing.T) {
	// Sanity: a die whose pads were NOT co-planned with the IOD must not
	// silently align (guards against a vacuously-passing checker).
	d := NewIODDesign()
	rogue := &DieSpec{Name: "rogue", Kind: DieXCD, W: 11000, H: 8500,
		SignalPads: padGrid(Point{1501, 1501}, 8, 5, 700)} // 1µm off
	pads := rogue.PlacedPads(Point{d.xcdSlots[0].X, d.xcdSlots[0].Y}, Orientation{})
	if len(d.missingSites(Orientation{}, pads)) == 0 {
		t.Error("misaligned rogue die passed alignment")
	}
}

func TestUSRPairingAllAdjacencies(t *testing.T) {
	p := AssembleMI300A()
	for _, adj := range adjacency {
		a, b := p.IODs[adj.a], p.IODs[adj.b]
		if err := CheckUSRPairing(p.Design, a.Orient, adj.edge, p.Design, b.Orient); err != nil {
			t.Errorf("%s-%s: %v", a.Name, b.Name, err)
		}
	}
}

func TestUSRPairingFailsWithoutMirrorFix(t *testing.T) {
	// Two normal IODs side by side: A's east TX lanes would face B's
	// east-design lanes on the wrong edge entirely — exactly why the
	// mirrored tapeout exists.
	d := NewIODDesign()
	err := CheckUSRPairing(d, Orientation{}, East, d, Orientation{})
	if err == nil {
		t.Error("two normal IODs paired east-west without mirroring; should fail")
	}
}

func TestAssembleMI300A(t *testing.T) {
	p := AssembleMI300A()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.XCDCount() != 6 || p.CCDCount() != 3 {
		t.Errorf("MI300A = %d XCDs / %d CCDs, want 6/3", p.XCDCount(), p.CCDCount())
	}
	if len(p.HBM) != 8 {
		t.Errorf("HBM stacks = %d, want 8", len(p.HBM))
	}
}

func TestAssembleMI300X(t *testing.T) {
	p := AssembleMI300X()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.XCDCount() != 8 || p.CCDCount() != 0 {
		t.Errorf("MI300X = %d XCDs / %d CCDs, want 8/0", p.XCDCount(), p.CCDCount())
	}
}

func TestModularSwapSharesIODDesign(t *testing.T) {
	// §VII: MI300A and MI300X use the exact same IOD design; only the
	// stacked chiplets differ.
	a, x := AssembleMI300A(), AssembleMI300X()
	if a.Design.SignalTSVs.Len() != x.Design.SignalTSVs.Len() {
		t.Error("MI300A and MI300X IOD designs diverged")
	}
	for i := range a.IODs {
		if a.IODs[i].Orient != x.IODs[i].Orient || a.IODs[i].Offset != x.IODs[i].Offset {
			t.Errorf("IOD %d placement differs between A and X", i)
		}
	}
}

func TestFloorplanComponents(t *testing.T) {
	p := AssembleMI300A()
	counts := map[ComponentKind]int{}
	for _, c := range p.Floorplan() {
		counts[c.Kind]++
	}
	if counts[CompXCD] != 6 || counts[CompCCD] != 3 || counts[CompIOD] != 4 || counts[CompHBM] != 8 {
		t.Errorf("floorplan counts = %v", counts)
	}
	if counts[CompHBMPHY] != 8 {
		t.Errorf("HBM PHYs = %d, want 8", counts[CompHBMPHY])
	}
	// Each IOD has USR on exactly 2 facing edges.
	if counts[CompUSRPHY] != 8 {
		t.Errorf("USR PHY strips = %d, want 8", counts[CompUSRPHY])
	}
	b := p.Bounds()
	if b.W <= 0 || b.H <= 0 {
		t.Error("degenerate bounds")
	}
	for _, c := range p.Floorplan() {
		if c.Rect.X < 0 || c.Rect.Y < 0 || c.Rect.X+c.Rect.W > b.W || c.Rect.Y+c.Rect.H > b.H {
			t.Errorf("%s outside package bounds", c.Name)
		}
	}
}

func TestChipletsWithinIOD(t *testing.T) {
	d := NewIODDesign()
	iod := Rect{0, 0, d.W, d.H}
	for _, o := range AllOrientations() {
		for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
			for _, pc := range d.PlacedChiplets(o, kind) {
				r := pc.Rect
				if r.X < 0 || r.Y < 0 || r.X+r.W > iod.W || r.Y+r.H > iod.H {
					t.Errorf("%s/%s: chiplet %v outside IOD", o, kind, r)
				}
			}
		}
	}
}

// Property: grid points are always invariant under mirroring for
// even-margin geometries.
func TestGridMirrorInvarianceProperty(t *testing.T) {
	f := func(nxRaw, pitchRaw uint8) bool {
		pitch := int(pitchRaw)%50*2 + 10 // even pitch
		nx := int(nxRaw)%50 + 2
		w := nx*pitch + pitch // even margins by construction
		g := Grid(w, w, pitch)
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if p := g.At(i, j); !g.Has(Point{w - p.X, p.Y}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSignalTSVsBuiltOnceAndShared builds designs from several goroutines
// at once: each must get the one shared site set, equal to the union of
// the placed pads of both compute kinds on both tapeouts, and pass every
// alignment check. Run under -race, it checks the set is only read.
func TestSignalTSVsBuiltOnceAndShared(t *testing.T) {
	d := newIODDesign()
	want := make(PointSet)
	for _, mirrored := range []bool{false, true} {
		for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
			for _, pc := range d.PlacedChiplets(Orientation{Mirrored: mirrored}, kind) {
				for p := range pc.Pads {
					want.Add(Orientation{Mirrored: mirrored}.Apply(p, d.W, d.H))
				}
			}
		}
	}
	designs := make([]*IODDesign, 8)
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for i := range designs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			designs[i] = NewIODDesign()
			for _, o := range AllOrientations() {
				for _, kind := range []ComputeKind{ComputeXCD, ComputeCCD} {
					if err := designs[i].CheckAlignment(o, kind); err != nil && errs[i] == nil {
						errs[i] = err
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, got := range designs {
		if errs[i] != nil {
			t.Errorf("design %d: %v", i, errs[i])
		}
		if got.SignalTSVs.Len() != want.Len() {
			t.Fatalf("design %d has %d sites, want %d", i, got.SignalTSVs.Len(), want.Len())
		}
		for p := range want {
			if !got.SignalTSVs.Has(p) {
				t.Fatalf("design %d lacks site %v", i, p)
			}
		}
		if reflect.ValueOf(got.SignalTSVs).Pointer() != reflect.ValueOf(designs[0].SignalTSVs).Pointer() {
			t.Errorf("design %d built its own site set", i)
		}
	}
}
