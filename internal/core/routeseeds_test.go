package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// routeSeedDir is the corpus of internal/fabric's FuzzRouteDifferential.
// Its platform seeds are every platform spec's fabric in the fuzz
// target's encoding (see fabric_test.go), followed by routeSeedOps.
// TestRouteFuzzSeedsMatchPlatforms writes a missing seed and fails on a
// stale one; after a change to a platform's fabric, delete the seed and
// run the test again.
const routeSeedDir = "../fabric/testdata/fuzz/FuzzRouteDifferential"

// routeSeedOps downs link 0 and then its reverse, derates link 3, and
// brings link 0 back up. On every spec link 0 leaves an IOD or a GCD, so
// the downs either reroute or partition.
var routeSeedOps = []byte{0, 2, 0, 1, 2, 0, 3, 1, 127, 0, 0, 0}

// encodeFabric writes p's fabric as FuzzRouteDifferential's topology:
// the node count less two, then one (a, b, latency in ns) record per
// Connect, which added links 2k and 2k+1.
func encodeFabric(t *testing.T, p *Platform) []byte {
	t.Helper()
	nodes := 0
	for p.Net.Node(fabric.NodeID(nodes)) != nil {
		nodes++
	}
	links := p.Net.Links()
	if nodes < 2 || nodes > 40 || len(links) > 2*64 {
		t.Fatalf("%s: %d nodes and %d links do not fit the route fuzz encoding", p.Spec.Name, nodes, len(links))
	}
	topo := []byte{byte(nodes - 2)}
	for i := 0; i < len(links); i += 2 {
		l, back := links[i], links[i+1]
		ns := l.Latency / sim.Nanosecond
		if back.Src != l.Dst || back.Dst != l.Src || back.Latency != l.Latency ||
			l.Latency%sim.Nanosecond != 0 || ns > 0xffff {
			t.Fatalf("%s: link %d (%s) does not fit the route fuzz encoding", p.Spec.Name, i, l.Name)
		}
		topo = append(topo, byte(l.Src), byte(l.Dst))
		topo = binary.LittleEndian.AppendUint16(topo, uint16(ns))
	}
	return topo
}

func TestRouteFuzzSeedsMatchPlatforms(t *testing.T) {
	for _, spec := range []*config.PlatformSpec{config.MI300A(), config.MI300X(), config.MI250X(), config.EHPv4(), config.BaselineGPU()} {
		p := mustPlatform(t, spec)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", encodeFabric(t, p), routeSeedOps)
		path := filepath.Join(routeSeedDir, "seed_platform_"+strings.ToLower(spec.Name))
		got, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s: %s is not the platform's fabric; delete it and run this test again to regenerate it", spec.Name, path)
		}
	}
}
