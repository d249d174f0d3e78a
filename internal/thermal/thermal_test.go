package thermal

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chiplet"
)

func flatMap(nx, ny int, w float64) [][]float64 {
	g := make([][]float64, ny)
	for j := range g {
		g[j] = make([]float64, nx)
		for i := range g[j] {
			g[j][i] = w
		}
	}
	return g
}

func TestZeroPowerIsAmbient(t *testing.T) {
	s := NewSolver(16, 16)
	f := s.Solve(flatMap(16, 16, 0))
	max, _, _ := f.Max()
	if max != s.AmbientC || f.Min() != s.AmbientC {
		t.Errorf("zero-power field = [%v, %v], want ambient %v", f.Min(), max, s.AmbientC)
	}
}

func TestHotspotAtSource(t *testing.T) {
	s := NewSolver(32, 32)
	g := flatMap(32, 32, 0)
	g[8][24] = 5 // point source
	f := s.Solve(g)
	max, x, y := f.Max()
	if x != 24 || y != 8 {
		t.Errorf("hotspot at (%d,%d), want (24,8)", x, y)
	}
	if max <= s.AmbientC {
		t.Error("source did not heat up")
	}
	// Temperature decays away from the source.
	if f.T[8][24] <= f.T[8][28] || f.T[8][28] <= f.T[8][31] {
		t.Error("temperature does not decay with distance")
	}
}

func TestMorePowerMoreHeat(t *testing.T) {
	s := NewSolver(16, 16)
	g1 := flatMap(16, 16, 0)
	g2 := flatMap(16, 16, 0)
	g1[8][8] = 1
	g2[8][8] = 3
	f1, f2 := s.Solve(g1), s.Solve(g2)
	m1, _, _ := f1.Max()
	m2, _, _ := f2.Max()
	if m2 <= m1 {
		t.Errorf("3 W (%v°C) not hotter than 1 W (%v°C)", m2, m1)
	}
}

// Property: the solved field is everywhere >= ambient for non-negative
// power, and its minimum never exceeds its maximum.
func TestFieldBoundsProperty(t *testing.T) {
	s := NewSolver(12, 12)
	s.MaxIters = 2000
	f := func(cells []uint8) bool {
		g := flatMap(12, 12, 0)
		for i, c := range cells {
			g[(i/12)%12][i%12] = float64(c) / 64
		}
		fld := s.Solve(g)
		max, _, _ := fld.Max()
		return fld.Min() >= s.AmbientC-1e-6 && fld.Min() <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRender(t *testing.T) {
	s := NewSolver(16, 8)
	g := flatMap(16, 8, 0)
	g[4][8] = 10
	f := s.Solve(g)
	out := f.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 || len(lines[0]) != 16 {
		t.Fatalf("render shape = %dx%d", len(lines[0]), len(lines))
	}
	if !strings.Contains(out, "@") {
		t.Error("hotspot glyph missing")
	}
}

func TestPowerMapRasterization(t *testing.T) {
	s := NewSolver(64, 40)
	pkg := chiplet.AssembleMI300A()
	bounds := pkg.Bounds()
	comps := pkg.Floorplan()
	watts := map[string]float64{}
	var xcdName string
	for _, c := range comps {
		if c.Kind == chiplet.CompXCD {
			watts[c.Name] = 60
			if xcdName == "" {
				xcdName = c.Name
			}
		}
	}
	g := s.PowerMap(bounds, comps, watts)
	var total float64
	for _, row := range g {
		for _, v := range row {
			total += v
		}
	}
	if total < 355 || total > 365 { // 6 XCDs × 60 W
		t.Errorf("rasterized power = %.1f W, want ~360", total)
	}
}

func TestThermalScenariosMatchFig12(t *testing.T) {
	// End-to-end: GPU-intensive power maps put the hotspot on an XCD;
	// memory-intensive maps make HBM/USR PHY regions hotter than before
	// while XCDs cool (Fig. 12 b/c).
	pkg := chiplet.AssembleMI300A()
	bounds := pkg.Bounds()
	comps := pkg.Floorplan()
	s := NewSolver(96, 60)

	gpuWatts := map[string]float64{}
	memWatts := map[string]float64{}
	for _, c := range comps {
		switch c.Kind {
		case chiplet.CompXCD:
			gpuWatts[c.Name] = 58
			memWatts[c.Name] = 27
		case chiplet.CompCCD:
			gpuWatts[c.Name] = 12
			memWatts[c.Name] = 10
		case chiplet.CompHBM:
			gpuWatts[c.Name] = 4
			memWatts[c.Name] = 10
		case chiplet.CompHBMPHY:
			gpuWatts[c.Name] = 2
			memWatts[c.Name] = 7
		case chiplet.CompUSRPHY:
			gpuWatts[c.Name] = 1.5
			memWatts[c.Name] = 6
		case chiplet.CompIOD:
			gpuWatts[c.Name] = 8
			memWatts[c.Name] = 14
		}
	}
	fGPU := s.Solve(s.PowerMap(bounds, comps, gpuWatts))
	fMem := s.Solve(s.PowerMap(bounds, comps, memWatts))

	// Hotspot in the GPU scenario lies within an XCD.
	_, hx, hy := fGPU.Max()
	inXCD := false
	for _, c := range comps {
		if c.Kind != chiplet.CompXCD {
			continue
		}
		x0, y0, x1, y1 := s.RectOf(bounds, c.Rect)
		if hx >= x0 && hx < x1 && hy >= y0 && hy < y1 {
			inXCD = true
		}
	}
	if !inXCD {
		t.Errorf("GPU-intensive hotspot at cell (%d,%d) is not on an XCD", hx, hy)
	}

	// Mean XCD temperature drops in the memory scenario; mean USR PHY
	// temperature rises.
	var xcdGPU, xcdMem, usrGPU, usrMem float64
	var nx, nu int
	for _, c := range comps {
		x0, y0, x1, y1 := s.RectOf(bounds, c.Rect)
		switch c.Kind {
		case chiplet.CompXCD:
			xcdGPU += fGPU.MeanOver(x0, y0, x1, y1)
			xcdMem += fMem.MeanOver(x0, y0, x1, y1)
			nx++
		case chiplet.CompUSRPHY:
			usrGPU += fGPU.MeanOver(x0, y0, x1, y1)
			usrMem += fMem.MeanOver(x0, y0, x1, y1)
			nu++
		}
	}
	if xcdMem/float64(nx) >= xcdGPU/float64(nx) {
		t.Error("XCDs did not cool in the memory-intensive scenario")
	}
	if usrMem/float64(nu) <= usrGPU/float64(nu) {
		t.Error("USR PHYs did not heat in the memory-intensive scenario")
	}
}

func TestCellMapping(t *testing.T) {
	s := NewSolver(10, 10)
	b := chiplet.Rect{W: 1000, H: 1000}
	if x, y := s.CellOf(b, chiplet.Point{X: 999, Y: 999}); x != 9 || y != 9 {
		t.Errorf("CellOf(999,999) = (%d,%d)", x, y)
	}
	x0, y0, x1, y1 := s.RectOf(b, chiplet.Rect{X: 100, Y: 100, W: 1, H: 1})
	if x1 <= x0 || y1 <= y0 {
		t.Error("degenerate rect mapped to empty cell range")
	}
}
