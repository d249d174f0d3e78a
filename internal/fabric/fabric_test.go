package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
)

// line builds A - B - C with given bandwidths.
func line(t *testing.T, bwAB, bwBC float64) (*Network, NodeID, NodeID, NodeID) {
	t.Helper()
	n := New()
	a := n.AddNode("A").ID
	b := n.AddNode("B").ID
	c := n.AddNode("C").ID
	n.Connect(a, b, config.LinkUSR, bwAB, 10*sim.Nanosecond)
	n.Connect(b, c, config.LinkUSR, bwBC, 10*sim.Nanosecond)
	return n, a, b, c
}

func TestRouteShortestPath(t *testing.T) {
	n, a, _, c := line(t, 1e12, 1e12)
	path, err := n.Route(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2", len(path))
	}
	// Add a direct link; route should now be 1 hop.
	n.Connect(a, c, config.LinkSerDes, 1e11, 50*sim.Nanosecond)
	path, err = n.Route(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 {
		t.Fatalf("after direct link, path length = %d, want 1", len(path))
	}
}

func TestRouteUnreachable(t *testing.T) {
	n := New()
	a := n.AddNode("A").ID
	b := n.AddNode("B").ID
	if _, err := n.Route(a, b); err == nil {
		t.Error("expected unreachable error")
	}
}

func TestRouteToSelfIsEmpty(t *testing.T) {
	n := New()
	a := n.AddNode("A").ID
	path, err := n.Route(a, a)
	if err != nil || len(path) != 0 {
		t.Errorf("self route = %v, %v", path, err)
	}
}

func TestTransferSerialization(t *testing.T) {
	n := New()
	a := n.AddNode("A").ID
	b := n.AddNode("B").ID
	n.Connect(a, b, config.LinkOnDie, 1e9, 0) // 1 GB/s, no latency
	end, err := n.Transfer(0, a, b, 1e9)      // 1 GB
	if err != nil {
		t.Fatal(err)
	}
	if got := end.Seconds(); got < 0.999 || got > 1.001 {
		t.Errorf("1 GB over 1 GB/s took %v s, want ~1", got)
	}
}

func TestTransferContentionQueues(t *testing.T) {
	n := New()
	a := n.AddNode("A").ID
	b := n.AddNode("B").ID
	n.Connect(a, b, config.LinkOnDie, 1e9, 0)
	end1, _ := n.Transfer(0, a, b, 1e9)
	end2, _ := n.Transfer(0, a, b, 1e9) // same instant: must queue
	if end2 <= end1 {
		t.Errorf("second transfer finished at %v, not after first %v", end2, end1)
	}
	if got := end2.Seconds(); got < 1.999 || got > 2.001 {
		t.Errorf("queued transfer finished at %v s, want ~2", got)
	}
}

func TestTransferBottleneckBandwidth(t *testing.T) {
	n, a, _, c := line(t, 2e12, 1e11) // BC is 20x slower
	bytes := int64(1e10)
	end, err := n.Transfer(0, a, c, bytes)
	if err != nil {
		t.Fatal(err)
	}
	// Dominated by BC serialization: 1e10 B / 1e11 B/s = 100 ms.
	if got := end.Milliseconds(); got < 99 || got > 102 {
		t.Errorf("bottleneck transfer = %v ms, want ~100", got)
	}
	bw, _ := n.PathBandwidth(a, c)
	if bw != 1e11 {
		t.Errorf("PathBandwidth = %g, want 1e11", bw)
	}
}

func TestPathLatencyAccumulates(t *testing.T) {
	n, a, _, c := line(t, 1e12, 1e12)
	lat, err := n.PathLatency(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 20*sim.Nanosecond {
		t.Errorf("PathLatency = %v, want 20ns", lat)
	}
	hops, _ := n.Hops(a, c)
	if hops != 2 {
		t.Errorf("Hops = %d, want 2", hops)
	}
}

func TestSignalIgnoresBulkTraffic(t *testing.T) {
	n, a, _, c := line(t, 1e12, 1e12)
	// Saturate the links with a huge transfer.
	n.Transfer(0, a, c, 1e12)
	// A priority signal at t=0 must not queue behind it.
	at, err := n.Signal(0, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if at > 100*sim.Nanosecond {
		t.Errorf("priority signal delivered at %v; should not queue behind bulk", at)
	}
}

func TestLinkStatsAndEnergy(t *testing.T) {
	n := New()
	a := n.AddNode("A").ID
	b := n.AddNode("B").ID
	l := n.Connect(a, b, config.LinkUSR, 1e12, sim.Nanosecond)
	n.Transfer(0, a, b, 1000)
	if l.BytesCarried() != 1000 {
		t.Errorf("BytesCarried = %d", l.BytesCarried())
	}
	// USR: 0.4 pJ/bit × 8000 bits = 3200 pJ.
	if got := l.EnergyPJ(); got != 3200 {
		t.Errorf("EnergyPJ = %g, want 3200", got)
	}
	if n.TotalBytes() != 1000 {
		t.Errorf("TotalBytes = %d", n.TotalBytes())
	}
	n.ResetStats()
	if l.BytesCarried() != 0 || l.BusyUntil() != 0 {
		t.Error("ResetStats did not clear link state")
	}
}

func TestNodeLookup(t *testing.T) {
	n := New()
	n.AddNode("iod0")
	x := n.AddNode("xcd0")
	if got := n.NodeByName("xcd0"); got == nil || got.ID != x.ID {
		t.Error("NodeByName failed")
	}
	if n.NodeByName("nope") != nil {
		t.Error("NodeByName returned phantom node")
	}
	if n.Node(NodeID(99)) != nil {
		t.Error("out-of-range Node lookup should be nil")
	}
}

// Property: transfers never complete before their no-contention lower
// bound (serialization at bottleneck + total latency), and later transfers
// on the same path never finish before earlier ones.
func TestTransferLowerBoundProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		n, a, _, c := line(t, 1e12, 5e11)
		lat, _ := n.PathLatency(a, c)
		bw, _ := n.PathBandwidth(a, c)
		var prevEnd sim.Time
		for _, s := range sizes {
			bytes := int64(s)
			end, err := n.Transfer(0, a, c, bytes)
			if err != nil {
				return false
			}
			lower := lat + sim.FromSeconds(float64(bytes)/bw)
			if end < lower {
				return false
			}
			if end < prevEnd {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: routes are symmetric in hop count for symmetric topologies.
func TestRouteSymmetryProperty(t *testing.T) {
	// Build a 2x2 mesh like MI300's four IODs.
	n := New()
	ids := make([]NodeID, 4)
	for i := range ids {
		ids[i] = n.AddNode([]string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"}[i]).ID
	}
	n.Connect(ids[0], ids[1], config.LinkUSR, 1.5e12, 5*sim.Nanosecond) // A-B
	n.Connect(ids[2], ids[3], config.LinkUSR, 1.5e12, 5*sim.Nanosecond) // C-D
	n.Connect(ids[0], ids[2], config.LinkUSR, 1.2e12, 5*sim.Nanosecond) // A-C
	n.Connect(ids[1], ids[3], config.LinkUSR, 1.2e12, 5*sim.Nanosecond) // B-D
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			hij, err1 := n.Hops(ids[i], ids[j])
			hji, err2 := n.Hops(ids[j], ids[i])
			if err1 != nil || err2 != nil || hij != hji {
				t.Errorf("asymmetric hops %d<->%d: %d vs %d", i, j, hij, hji)
			}
			if hij > 2 {
				t.Errorf("2x2 mesh should reach any IOD in <=2 hops, got %d", hij)
			}
		}
	}
}

// mesh2x2 builds the MI300-style four-IOD mesh: horizontal links at 1.5
// TB/s, vertical at 1.2 TB/s.
func mesh2x2(t *testing.T) (*Network, []NodeID) {
	t.Helper()
	n := New()
	ids := make([]NodeID, 4)
	for i := range ids {
		ids[i] = n.AddNode([]string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"}[i]).ID
	}
	n.Connect(ids[0], ids[1], config.LinkUSR, 1.5e12, 5*sim.Nanosecond) // A-B
	n.Connect(ids[2], ids[3], config.LinkUSR, 1.5e12, 5*sim.Nanosecond) // C-D
	n.Connect(ids[0], ids[2], config.LinkUSR, 1.2e12, 5*sim.Nanosecond) // A-C
	n.Connect(ids[1], ids[3], config.LinkUSR, 1.2e12, 5*sim.Nanosecond) // B-D
	return n, ids
}

// Regression for the stale-route-cache bug: a cached route (and cached
// priority-signal latency) computed before a topology mutation must not
// survive the mutation.
func TestConnectInvalidatesCaches(t *testing.T) {
	n, a, _, c := line(t, 1e12, 1e12)
	if h, _ := n.Hops(a, c); h != 2 {
		t.Fatalf("pre-mutation hops = %d, want 2", h)
	}
	sigBefore, _ := n.Signal(0, a, c) // populates priorityLat cache
	// Mutate the topology after routes were cached: add a direct fast link.
	n.Connect(a, c, config.LinkUSR, 1e12, sim.Nanosecond)
	if h, _ := n.Hops(a, c); h != 1 {
		t.Errorf("post-Connect hops = %d, want 1 (stale route cache)", h)
	}
	sigAfter, _ := n.Signal(0, a, c)
	if sigAfter >= sigBefore {
		t.Errorf("post-Connect signal %v not faster than %v (stale priorityLat cache)", sigAfter, sigBefore)
	}
}

func TestSetLinkStateInvalidatesCachedRoute(t *testing.T) {
	n, ids := mesh2x2(t)
	if h, _ := n.Hops(ids[0], ids[1]); h != 1 {
		t.Fatalf("healthy A->B hops = %d, want 1", h)
	}
	if _, err := n.SetLinkStateBetween(ids[0], ids[1], LinkDown, 0); err != nil {
		t.Fatal(err)
	}
	h, err := n.Hops(ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Errorf("A->B hops after A-B down = %d, want 3 (A-C-D-B)", h)
	}
}

func TestLinkDownReroutesAtLowerBandwidth(t *testing.T) {
	n, ids := mesh2x2(t)
	healthy, err := n.PathBandwidth(ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetLinkStateBetween(ids[0], ids[1], LinkDown, 0); err != nil {
		t.Fatal(err)
	}
	degraded, err := n.PathBandwidth(ids[0], ids[1])
	if err != nil {
		t.Fatalf("rerouted path should survive: %v", err)
	}
	if !(degraded > 0 && degraded < healthy) {
		t.Errorf("degraded BW %g not strictly between 0 and healthy %g", degraded, healthy)
	}
}

func TestPartitionReturnsTypedError(t *testing.T) {
	n, ids := mesh2x2(t)
	// Isolate IOD-B: both of its connections go down.
	if _, err := n.SetLinkStateBetween(ids[0], ids[1], LinkDown, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetLinkStateBetween(ids[1], ids[3], LinkDown, 0); err != nil {
		t.Fatal(err)
	}
	_, err := n.Route(ids[0], ids[1])
	if !errors.Is(err, ErrPartitioned) {
		t.Errorf("Route to isolated node = %v, want ErrPartitioned", err)
	}
	if _, err := n.Transfer(0, ids[2], ids[1], 4096); !errors.Is(err, ErrPartitioned) {
		t.Errorf("Transfer to isolated node = %v, want ErrPartitioned", err)
	}
}

func TestLinkDerateSlowsSerialization(t *testing.T) {
	n := New()
	a := n.AddNode("A").ID
	b := n.AddNode("B").ID
	l := n.Connect(a, b, config.LinkUSR, 1e9, 0)
	end1, _ := n.Transfer(0, a, b, 1e6)
	if err := n.SetLinkState(l.ID, LinkDerated, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := l.EffectiveBW(); got != 5e8 {
		t.Errorf("EffectiveBW at 0.5 derate = %g, want 5e8", got)
	}
	n.ResetStats()
	end2, _ := n.Transfer(0, a, b, 1e6)
	if end2 != 2*end1 {
		t.Errorf("derated transfer = %v, want exactly 2x healthy %v", end2, end1)
	}
	if err := n.SetLinkState(l.ID, LinkDerated, 1.5); err == nil {
		t.Error("derate > 1 should be rejected")
	}
	if err := n.SetLinkState(99, LinkDown, 0); err == nil {
		t.Error("unknown link id should be rejected")
	}
}

func BenchmarkTransfer(b *testing.B) {
	n := New()
	a := n.AddNode("A").ID
	c := n.AddNode("C").ID
	mid := n.AddNode("B").ID
	n.Connect(a, mid, config.LinkUSR, 1.5e12, 5*sim.Nanosecond)
	n.Connect(mid, c, config.LinkUSR, 1.5e12, 5*sim.Nanosecond)
	path, _ := n.Route(a, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TransferPathObserved(sim.Time(i), path, 4096, nil)
	}
}

// refBFS is the route search before it kept its state in a slice indexed
// by NodeID, kept as the executable spec Route is checked against: a map
// per search, and each visited node's links gathered from the link list
// and sorted by ID, without the network's adjacency index.
func refBFS(n *Network, src, dst NodeID) ([]*Link, error) {
	type state struct {
		hops int
		lat  sim.Time
		via  *Link
		prev NodeID
	}
	best := map[NodeID]state{src: {}}
	frontier := []NodeID{src}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			su := best[u]
			var links []*Link
			for _, l := range n.links {
				if l.Src == u {
					links = append(links, l)
				}
			}
			sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })
			for _, l := range links {
				if l.state == LinkDown {
					continue
				}
				cand := state{hops: su.hops + 1, lat: su.lat + l.Latency, via: l, prev: u}
				sv, seen := best[l.Dst]
				if !seen || cand.hops < sv.hops || (cand.hops == sv.hops && cand.lat < sv.lat) {
					best[l.Dst] = cand
					next = append(next, l.Dst)
				}
			}
		}
		frontier = next
	}
	if _, ok := best[dst]; !ok {
		return nil, fmt.Errorf("%w: no route %s -> %s", ErrPartitioned, n.nodes[src].Name, n.nodes[dst].Name)
	}
	var path []*Link
	for at := dst; at != src; {
		s := best[at]
		path = append(path, s.via)
		at = s.prev
	}
	// Reverse into src->dst order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// The route differential decodes a fuzz input into a topology and a
// sequence of link state changes. topo[0] sets the node count, 2 to 40;
// each following four bytes connect two nodes (a, b, then the latency in
// nanoseconds as a little-endian uint16), up to 64 connections. Each three
// bytes of ops set one link's state: the link, then the state (mod 3),
// then the derate as (b+1)/256. The committed corpus holds every platform
// spec's fabric; internal/core's TestRouteFuzzSeedsMatchPlatforms writes
// and checks those seeds.
const (
	maxRouteNodes    = 40
	maxRouteConnects = 64
	maxRouteOps      = 32
)

// routeNetwork builds the network topo describes.
func routeNetwork(topo []byte) *Network {
	n := New()
	if len(topo) == 0 {
		return n
	}
	nodes := 2 + int(topo[0])%(maxRouteNodes-1)
	for i := 0; i < nodes; i++ {
		n.AddNode(fmt.Sprintf("n%d", i))
	}
	topo = topo[1:]
	for c := 0; c < maxRouteConnects && len(topo) >= 4; c++ {
		lat := sim.Time(binary.LittleEndian.Uint16(topo[2:])) * sim.Nanosecond
		n.Connect(NodeID(int(topo[0])%nodes), NodeID(int(topo[1])%nodes), config.LinkUSR, 1e12, lat)
		topo = topo[4:]
	}
	return n
}

// checkRoutes fails unless Route gives every ordered pair of distinct
// nodes the reference's path, or the reference's error.
func checkRoutes(t *testing.T, n *Network, after string) {
	t.Helper()
	for s := range n.nodes {
		for d := range n.nodes {
			if s == d {
				continue
			}
			src, dst := NodeID(s), NodeID(d)
			got, gerr := n.Route(src, dst)
			want, werr := refBFS(n, src, dst)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || errors.Is(gerr, ErrPartitioned) != errors.Is(werr, ErrPartitioned) {
				t.Fatalf("after %s: Route(%d, %d) error %v, reference %v", after, s, d, gerr, werr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("after %s: Route(%d, %d) = %v, reference %v", after, s, d, linkIDs(got), linkIDs(want))
			}
		}
	}
}

func linkIDs(path []*Link) []int {
	ids := make([]int, len(path))
	for i, l := range path {
		ids[i] = l.ID
	}
	return ids
}

// runRouteDiff checks Route against refBFS on topo's network, first as
// built and then after each of ops' link state changes.
func runRouteDiff(t *testing.T, topo, ops []byte) {
	n := routeNetwork(topo)
	checkRoutes(t, n, "build")
	if len(n.links) == 0 {
		return
	}
	for i := 0; i < maxRouteOps && len(ops) >= 3; i++ {
		id, state, derate := int(ops[0])%len(n.links), LinkState(ops[1]%3), float64(ops[2])/256+1.0/256
		if err := n.SetLinkState(id, state, derate); err != nil {
			t.Fatalf("op %d: SetLinkState(%d, %v, %g): %v", i, id, state, derate, err)
		}
		checkRoutes(t, n, fmt.Sprintf("op %d (link %d %v)", i, id, state))
		ops = ops[3:]
	}
}

func FuzzRouteDifferential(f *testing.F) {
	// The 2x2 IOD mesh of mesh2x2, with A->B down, then B->A down,
	// which sends A-B traffic around the ring, then A->C down too,
	// which leaves A unable to send at all.
	mesh := []byte{2, 0, 1, 5, 0, 2, 3, 5, 0, 0, 2, 5, 0, 1, 3, 5, 0}
	f.Add(mesh, []byte{0, 2, 0, 1, 2, 0, 4, 2, 0})
	// The same mesh with one link derated and brought back up.
	f.Add(mesh, []byte{2, 1, 127, 2, 0, 0})
	f.Fuzz(runRouteDiff)
}

func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		topo := make([]byte, 1+4*(1+rng.Intn(maxRouteConnects)))
		ops := make([]byte, 3*rng.Intn(12))
		rng.Read(topo)
		rng.Read(ops)
		// Few nodes and short latencies make equal-hop paths and ties
		// common.
		topo[0] = byte(rng.Intn(12))
		for j := 3; j < len(topo); j += 4 {
			topo[j], topo[j+1] = topo[j]%8, 0
		}
		runRouteDiff(t, topo, ops)
	}
}
