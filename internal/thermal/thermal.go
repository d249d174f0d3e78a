// Package thermal implements a two-dimensional steady-state heat solver
// over the package floorplan, reproducing the thermal simulation
// projections of §V.E (Fig. 12b/c): with a compute-intensive power map the
// hotspots concentrate on the XCDs; with a memory-intensive map the HBM
// PHYs along the periphery and the USR PHYs between the IODs stand out.
//
// The model is a finite-difference Laplace solver with a per-cell heat
// source (the component power maps) and a distributed heat-sink term (the
// cold plate above the die stack): k·∇²T + q − g·(T − T_amb) = 0, solved
// by Gauss-Seidel relaxation. Lateral spreading (k) versus sink
// conductance (g) controls hotspot sharpness.
package thermal

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/chiplet"
)

// Solver holds the grid geometry and material parameters.
type Solver struct {
	Nx, Ny int
	// Spread is the lateral conduction weight relative to the vertical
	// sink conductance; higher values blur hotspots.
	Spread float64
	// AmbientC is the coolant temperature in Celsius.
	AmbientC float64
	// RiseScale converts W/cell of dissipation into °C of local rise at
	// equilibrium (absorbs thickness, k, and cell size).
	RiseScale float64
	// Tolerance terminates relaxation when the max update is below it.
	Tolerance float64
	// MaxIters bounds relaxation.
	MaxIters int
}

// NewSolver returns a solver with reasonable defaults for an nx×ny grid.
func NewSolver(nx, ny int) *Solver {
	if nx < 4 || ny < 4 {
		panic(fmt.Sprintf("thermal: invariant violated: solver grid must be at least 4x4 (got %dx%d)", nx, ny))
	}
	return &Solver{
		Nx: nx, Ny: ny,
		Spread:    2.0,
		AmbientC:  35,
		RiseScale: 28,
		Tolerance: 1e-4,
		MaxIters:  20000,
	}
}

// HotspotEstimate is a closed-form steady-state hotspot estimate for a
// uniformly dissipating region: ambient plus a rise proportional to power
// density (W/mm²). The full Gauss-Seidel Solve costs O(grid² · iters) and
// is far too expensive to run at telemetry sampling cadence; this is the
// cheap per-sample companion the power governor's hotspot probe uses.
func HotspotEstimate(ambientC, watts, areaMM2 float64) float64 {
	if watts <= 0 || areaMM2 <= 0 {
		return ambientC
	}
	// °C·mm²/W through the die stack and cold plate, calibrated so the
	// MI300A XCD domain at its 390 W peak over six ~115 mm² dies lands
	// near the ~85 °C hotspots of the Fig. 12 maps at 35 °C coolant.
	const thetaCMM2PerW = 88.0
	return ambientC + thetaCMM2PerW*watts/areaMM2
}

// Field is a solved temperature field in Celsius, row-major [y][x].
type Field struct {
	Nx, Ny int
	T      [][]float64
}

// Max reports the peak temperature and its cell.
func (f *Field) Max() (tmax float64, x, y int) {
	tmax = math.Inf(-1)
	for j := 0; j < f.Ny; j++ {
		for i := 0; i < f.Nx; i++ {
			if f.T[j][i] > tmax {
				tmax, x, y = f.T[j][i], i, j
			}
		}
	}
	return
}

// Min reports the coolest cell temperature.
func (f *Field) Min() float64 {
	m := math.Inf(1)
	for j := 0; j < f.Ny; j++ {
		for i := 0; i < f.Nx; i++ {
			if f.T[j][i] < m {
				m = f.T[j][i]
			}
		}
	}
	return m
}

// MeanOver reports the mean temperature of cells within the rect (grid
// coordinates).
func (f *Field) MeanOver(x0, y0, x1, y1 int) float64 {
	var sum float64
	var n int
	for j := y0; j < y1 && j < f.Ny; j++ {
		for i := x0; i < x1 && i < f.Nx; i++ {
			if i >= 0 && j >= 0 {
				sum += f.T[j][i]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render draws the field as an ASCII heat map (one char per cell, hotter =
// denser glyph), ymax at the top.
func (f *Field) Render() string {
	const ramp = " .:-=+*#%@"
	lo := f.Min()
	hi, _, _ := f.Max()
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	for j := f.Ny - 1; j >= 0; j-- {
		for i := 0; i < f.Nx; i++ {
			idx := int((f.T[j][i] - lo) / span * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Solve relaxes the temperature field for the given power map (W per
// cell, [y][x], dimensions must match the solver grid).
func (s *Solver) Solve(powerW [][]float64) *Field {
	if len(powerW) != s.Ny || len(powerW[0]) != s.Nx {
		panic(fmt.Sprintf("thermal: invariant violated: power map %dx%d must match the solver grid %dx%d",
			len(powerW[0]), len(powerW), s.Nx, s.Ny))
	}
	T := make([][]float64, s.Ny)
	for j := range T {
		T[j] = make([]float64, s.Nx)
		for i := range T[j] {
			T[j][i] = s.AmbientC
		}
	}
	// Gauss-Seidel: T = (spread*avg(neighbors) + ambient + rise*q) / (spread+1)
	//
	// Cells update in row-major order, each from its neighbours' latest
	// values. Interior cells always have four neighbours and take them
	// without the boundary tests, summed in relaxEdge's order (left,
	// right, below, above), so the field is bit-identical to a sweep that
	// tests every cell.
	spread, ambient, rise, denom := s.Spread, s.AmbientC, s.RiseScale, s.Spread+1
	for iter := 0; iter < s.MaxIters; iter++ {
		var maxDelta float64
		for j := 0; j < s.Ny; j++ {
			if j == 0 || j == s.Ny-1 || s.Nx < 3 {
				for i := 0; i < s.Nx; i++ {
					maxDelta = s.relaxEdge(T, powerW, i, j, maxDelta)
				}
				continue
			}
			maxDelta = s.relaxEdge(T, powerW, 0, j, maxDelta)
			below, row, above, q := T[j-1], T[j], T[j+1], powerW[j]
			for i := 1; i < s.Nx-1; i++ {
				nsum := row[i-1] + row[i+1] + below[i] + above[i]
				newT := (spread*(nsum/4) + ambient + rise*q[i]) / denom
				if d := math.Abs(newT - row[i]); d > maxDelta {
					maxDelta = d
				}
				row[i] = newT
			}
			maxDelta = s.relaxEdge(T, powerW, s.Nx-1, j, maxDelta)
		}
		if maxDelta < s.Tolerance {
			break
		}
	}
	return &Field{Nx: s.Nx, Ny: s.Ny, T: T}
}

// relaxEdge relaxes cell (i, j) from the neighbours it has, which on the
// grid's edge are fewer than four, and returns maxDelta raised to the
// cell's change if that is larger.
func (s *Solver) relaxEdge(T, powerW [][]float64, i, j int, maxDelta float64) float64 {
	var nsum float64
	var n float64
	if i > 0 {
		nsum += T[j][i-1]
		n++
	}
	if i < s.Nx-1 {
		nsum += T[j][i+1]
		n++
	}
	if j > 0 {
		nsum += T[j-1][i]
		n++
	}
	if j < s.Ny-1 {
		nsum += T[j+1][i]
		n++
	}
	avg := nsum / n
	newT := (s.Spread*avg + s.AmbientC + s.RiseScale*powerW[j][i]) / (s.Spread + 1)
	if d := math.Abs(newT - T[j][i]); d > maxDelta {
		maxDelta = d
	}
	T[j][i] = newT
	return maxDelta
}

// PowerMap rasterizes per-component power onto the solver grid: each
// component's watts are spread uniformly over the cells its rectangle
// covers. bounds is the package extent in µm.
func (s *Solver) PowerMap(bounds chiplet.Rect, comps []chiplet.Component, watts map[string]float64) [][]float64 {
	grid := make([][]float64, s.Ny)
	for j := range grid {
		grid[j] = make([]float64, s.Nx)
	}
	cellW := float64(bounds.W) / float64(s.Nx)
	cellH := float64(bounds.H) / float64(s.Ny)
	for _, c := range comps {
		w, ok := watts[c.Name]
		if !ok || w <= 0 {
			continue
		}
		i0 := int(float64(c.Rect.X) / cellW)
		i1 := int(math.Ceil(float64(c.Rect.X+c.Rect.W) / cellW))
		j0 := int(float64(c.Rect.Y) / cellH)
		j1 := int(math.Ceil(float64(c.Rect.Y+c.Rect.H) / cellH))
		if i1 > s.Nx {
			i1 = s.Nx
		}
		if j1 > s.Ny {
			j1 = s.Ny
		}
		cells := (i1 - i0) * (j1 - j0)
		if cells <= 0 {
			continue
		}
		per := w / float64(cells)
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				grid[j][i] += per
			}
		}
	}
	return grid
}

// CellOf maps a package-coordinate point to its grid cell.
func (s *Solver) CellOf(bounds chiplet.Rect, p chiplet.Point) (x, y int) {
	x = p.X * s.Nx / bounds.W
	y = p.Y * s.Ny / bounds.H
	if x >= s.Nx {
		x = s.Nx - 1
	}
	if y >= s.Ny {
		y = s.Ny - 1
	}
	return
}

// RectOf maps a package-coordinate rect to grid-cell bounds.
func (s *Solver) RectOf(bounds chiplet.Rect, r chiplet.Rect) (x0, y0, x1, y1 int) {
	x0, y0 = s.CellOf(bounds, chiplet.Point{X: r.X, Y: r.Y})
	x1, y1 = s.CellOf(bounds, chiplet.Point{X: r.X + r.W, Y: r.Y + r.H})
	if x1 <= x0 {
		x1 = x0 + 1
	}
	if y1 <= y0 {
		y1 = y0 + 1
	}
	return
}
