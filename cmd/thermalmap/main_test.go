package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestThermalmap builds the command, renders both Fig. 12 scenarios on a
// small grid with -pgm, and checks the ASCII maps and the two graymaps.
func TestThermalmap(t *testing.T) {
	const nx, ny = 24, 12
	dir := t.TempDir()
	bin := filepath.Join(dir, "thermalmap")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building thermalmap: %v\n%s", err, out)
	}
	prefix := filepath.Join(dir, "out")
	b, err := exec.Command(bin, "-nx", strconv.Itoa(nx), "-ny", strconv.Itoa(ny), "-pgm", prefix).Output()
	if err != nil {
		t.Fatalf("thermalmap: %v", err)
	}
	out := string(b)
	for _, s := range []struct{ title, pgm string }{
		{"GPU-intensive (Fig. 12b) — peak ", prefix + "-gpu.pgm"},
		{"memory-intensive (Fig. 12c) — peak ", prefix + "-mem.pgm"},
	} {
		_, rest, ok := strings.Cut(out, "\n"+s.title)
		if !ok {
			t.Fatalf("output lacks %q:\n%s", s.title, out)
		}
		// The header line, a blank line, ny map rows, a blank line, and
		// the -pgm note.
		lines := strings.Split(rest, "\n")
		if len(lines) < ny+4 || lines[1] != "" || lines[ny+2] != "" {
			t.Fatalf("%s map is not %d rows:\n%s", s.title, ny, rest)
		}
		if lines[ny+3] != "wrote "+s.pgm {
			t.Errorf("after the %s map: %q, want the -pgm note", s.title, lines[ny+3])
		}
		checkPGM(t, s.pgm, nx, ny)
	}
}

// checkPGM checks an ASCII graymap of nx×ny cells spanning the full
// 0-255 range: the coolest cell black, the hotspot white.
func checkPGM(t *testing.T, name string, nx, ny int) {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 3+ny || lines[0] != "P2" || lines[1] != strconv.Itoa(nx)+" "+strconv.Itoa(ny) || lines[2] != "255" {
		t.Fatalf("%s: header %q and %d rows, want P2 %dx%d", name, lines[:min(3, len(lines))], len(lines)-3, nx, ny)
	}
	lo, hi := 255, 0
	for _, row := range lines[3:] {
		cells := strings.Fields(row)
		if len(cells) != nx {
			t.Fatalf("%s: row of %d cells, want %d", name, len(cells), nx)
		}
		for _, c := range cells {
			v, err := strconv.Atoi(c)
			if err != nil || v < 0 || v > 255 {
				t.Fatalf("%s: cell %q is not a gray level", name, c)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if lo != 0 || hi != 255 {
		t.Errorf("%s spans gray levels %d-%d, want 0-255", name, lo, hi)
	}
}
