package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTopoviz builds the command and checks every view it draws: both
// package floorplans, the three Fig. 18 nodes with their link counts, and
// the Fig. 17 partition table. An unknown view exits 2.
func TestTopoviz(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "topoviz")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building topoviz: %v\n%s", err, out)
	}
	b, err := exec.Command(bin, "-width", "60").Output()
	if err != nil {
		t.Fatalf("topoviz: %v", err)
	}
	sections := map[string]string{}
	var order []string
	for _, part := range strings.Split(string(b), "\n=== ")[1:] {
		title, body, _ := strings.Cut(part, " ===\n")
		sections[title] = body
		order = append(order, title)
	}
	legend := " package floorplan (X=XCD C=CCD H=HBM p=HBM-PHY u=USR-PHY .=IOD)"
	want := []string{"MI300A" + legend, "MI300X" + legend,
		"4xMI300A node (Fig. 18)", "8xMI300X node (Fig. 18)", "Frontier node (Fig. 18)"}
	if strings.Join(order, "|") != strings.Join(want, "|") {
		t.Fatalf("sections %q, want %q", order, want)
	}

	// Fig. 16: MI300X swaps the MI300A's CCDs for two more XCDs on the
	// same IODs.
	apu, acc := sections[want[0]], sections[want[1]]
	for _, c := range "XHpu." {
		if !strings.ContainsRune(apu, c) || !strings.ContainsRune(acc, c) {
			t.Errorf("a floorplan lacks %q", c)
		}
	}
	if !strings.ContainsRune(apu, 'C') || strings.ContainsRune(acc, 'C') {
		t.Error("want CCDs on the MI300A floorplan only")
	}

	// Fig. 18: two x16 links per APU pair; one per accelerator pair plus
	// each accelerator's PCIe link to the host.
	for title, links := range map[string][2]int{want[2]: {2 * 6, 0}, want[3]: {28, 8}} {
		body := sections[title]
		if !strings.Contains(body, "fully connected: true") {
			t.Errorf("%s is not fully connected", title)
		}
		got := [2]int{strings.Count(body, "--IF("), strings.Count(body, "--PCIe(")}
		if got != links {
			t.Errorf("%s draws %v IF and PCIe links, want %v", title, got, links)
		}
	}
	if !strings.Contains(sections[want[4]], "\n== Fig. 17: partitioning modes ==\n") {
		t.Error("output lacks the Fig. 17 partition table")
	}

	var exit *exec.ExitError
	if err := exec.Command(bin, "-view", "bogus").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("-view bogus: %v, want exit status 2", err)
	}
}
