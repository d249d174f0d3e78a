package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSolve is the Gauss-Seidel sweep Solve replaced, kept verbatim as its
// executable spec: every cell, interior or not, tests all four of its
// neighbours for existence.
func refSolve(s *Solver, powerW [][]float64) *Field {
	T := make([][]float64, s.Ny)
	for j := range T {
		T[j] = make([]float64, s.Nx)
		for i := range T[j] {
			T[j][i] = s.AmbientC
		}
	}
	for iter := 0; iter < s.MaxIters; iter++ {
		var maxDelta float64
		for j := 0; j < s.Ny; j++ {
			for i := 0; i < s.Nx; i++ {
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
			}
		}
		if maxDelta < s.Tolerance {
			break
		}
	}
	return &Field{Nx: s.Nx, Ny: s.Ny, T: T}
}

// TestSolveMatchesReference compares Solve with refSolve bit for bit on
// random power maps from 4×4 up to Fig. 12's 96×60: sparse hot cells
// over a cool background, with random lateral spread, ambient and rise,
// some stopped by their tolerance and some by their iteration cap.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := [][2]int{{4, 4}, {5, 4}, {4, 7}, {96, 60}}
	for len(sizes) < 40 {
		sizes = append(sizes, [2]int{4 + rng.Intn(93), 4 + rng.Intn(57)})
	}
	for trial, sz := range sizes {
		nx, ny := sz[0], sz[1]
		s := NewSolver(nx, ny)
		s.Spread = 0.5 + 4*rng.Float64()
		s.AmbientC = 20 + 30*rng.Float64()
		s.RiseScale = 10 + 40*rng.Float64()
		if trial%2 == 1 { // stopped by the cap, not the tolerance
			s.MaxIters = 1 + rng.Intn(30)
		}
		g := flatMap(nx, ny, 0)
		for j := range g {
			for i := range g[j] {
				switch r := rng.Float64(); {
				case r < 0.05:
					g[j][i] = 5 * rng.Float64()
				case r < 0.5:
					g[j][i] = 0.05 * rng.Float64()
				}
			}
		}
		got, want := s.Solve(g), refSolve(s, g)
		where := fmt.Sprintf("trial %d, %dx%d", trial, nx, ny)
		if got.Nx != want.Nx || got.Ny != want.Ny {
			t.Fatalf("%s: field is %dx%d, reference %dx%d", where, got.Nx, got.Ny, want.Nx, want.Ny)
		}
		for j := range want.T {
			for i := range want.T[j] {
				if a, b := got.T[j][i], want.T[j][i]; math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: cell (%d, %d) = %v (%#x), reference %v (%#x)",
						where, i, j, a, math.Float64bits(a), b, math.Float64bits(b))
				}
			}
		}
	}
}
