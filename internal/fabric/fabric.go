// Package fabric models the Infinity Fabric interconnect as a generic
// network-on-chip: named nodes joined by directed links with per-link
// bandwidth, latency, and occupancy tracking. Because MI300's physical
// construction spans four IODs, the "NoC" here routinely crosses die
// boundaries (§IV.A); the link kinds (on-die, USR, SerDes, IFOP, PCIe)
// carry the bandwidth and energy characteristics of each crossing.
//
// Timing uses a cut-through occupancy model: a transfer claims each link on
// its path in order, queueing behind earlier traffic (per-link busy
// horizon), paying the link's latency for the header and the serialization
// time for the payload. This reproduces both bandwidth saturation under
// contention and latency accumulation over multi-hop paths (such as
// EHPv4's two-hop CPU→HBM path, §III.B) without flit-level state.
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// ErrPartitioned reports that a destination is unreachable because every
// candidate path crosses at least one downed link. Callers distinguish it
// from topology bugs with errors.Is.
var ErrPartitioned = errors.New("fabric: network partitioned")

// LinkState is the RAS health state of a link.
type LinkState int

const (
	// LinkUp is a healthy link at full bandwidth.
	LinkUp LinkState = iota
	// LinkDerated carries traffic at a fraction of nominal bandwidth
	// (lane retirement, thermal throttling, retraining at lower speed).
	LinkDerated
	// LinkDown carries no traffic; routing must go around it.
	LinkDown
)

// String names the link state.
func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDerated:
		return "derated"
	case LinkDown:
		return "down"
	default:
		return fmt.Sprintf("LinkState(%d)", int(s))
	}
}

// NodeID identifies a node in the network.
type NodeID int

// Node is a fabric endpoint or switch.
type Node struct {
	ID   NodeID
	Name string
}

// Link is a directed connection with fixed bandwidth and latency.
type Link struct {
	ID      int
	Name    string
	Kind    config.LinkKind
	Src     NodeID
	Dst     NodeID
	BW      float64  // nominal bytes/sec
	Latency sim.Time // header latency

	state     LinkState
	derate    float64 // effective-BW fraction while LinkDerated, in (0, 1]
	busyUntil sim.Time
	bytes     uint64
	// bytesAtDown freezes the byte counter at the moment the link went
	// LinkDown. While down, bytes must not grow past it: any growth means
	// traffic crossed a dead link over a stale (cached or pre-resolved)
	// path — the audit layer checks this after RAS reroutes.
	bytesAtDown uint64
}

// State reports the link's RAS health state.
func (l *Link) State() LinkState { return l.state }

// EffectiveBW reports the bandwidth the link currently delivers: nominal
// when up, nominal×derate when derated, zero when down.
func (l *Link) EffectiveBW() float64 {
	switch l.state {
	case LinkDown:
		return 0
	case LinkDerated:
		return l.BW * l.derate
	default:
		return l.BW
	}
}

// SerializationTime reports how long the payload occupies the link at its
// current effective bandwidth.
func (l *Link) SerializationTime(bytes int64) sim.Time {
	bw := l.EffectiveBW()
	if bytes <= 0 || bw <= 0 {
		return 0
	}
	return sim.FromSeconds(float64(bytes) / bw)
}

// BytesCarried reports total payload bytes that have crossed the link.
func (l *Link) BytesCarried() uint64 { return l.bytes }

// BytesAtDown reports the byte counter frozen when the link last went
// LinkDown (meaningful only while State() == LinkDown).
func (l *Link) BytesAtDown() uint64 { return l.bytesAtDown }

// BusyUntil reports the link's current occupancy horizon.
func (l *Link) BusyUntil() sim.Time { return l.busyUntil }

// EnergyPJ reports transport energy consumed so far in picojoules.
func (l *Link) EnergyPJ() float64 {
	return float64(l.bytes) * 8 * l.Kind.EnergyPerBit()
}

// Network is a static-topology NoC with deterministic shortest-path routing.
type Network struct {
	nodes []*Node
	links []*Link
	// nodeSlab and linkSlab hold the nodes and links themselves.
	nodeSlab slab[Node]
	linkSlab slab[Link]
	// out[adjStart[u]:adjStart[u+1]] is node u's outgoing links, in link
	// ID order. bfs builds the index on its first search after the
	// topology changed; adding a node or a link drops it.
	adjStart []int32
	out      []*Link
	// routes caches hop-minimal paths keyed by src<<32|dst.
	routes map[int64][]*Link
	// best, frontier and next are bfs's scratch state, reused by every
	// search: best is indexed by NodeID.
	best           []searchState
	frontier, next []NodeID
	// priority links form the high-priority communication channel used
	// for ACE-to-ACE synchronization (§VI.A); keyed like routes.
	priorityLat map[int64]sim.Time
	// injected accumulates bytes×hops for every transfer admitted into
	// the fabric. Byte conservation demands TotalBytes() == injected at
	// drain: every injected byte was carried by exactly the links on its
	// path, none were dropped or double-counted.
	injected uint64
}

// slab hands out pointers to zeroed Ts a chunk at a time, so a network's
// nodes and links cost a few allocations rather than one each. Each chunk
// holds as many Ts as the slab has handed out so far, from 8 to 64. A
// chunk is never reallocated, so the pointers stay valid.
type slab[T any] struct {
	free   []T
	handed int
}

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(max(s.handed, 8), 64))
	}
	p := &s.free[0]
	s.free = s.free[1:]
	s.handed++
	return p
}

// New returns an empty network.
func New() *Network {
	return &Network{
		routes:      make(map[int64][]*Link),
		priorityLat: make(map[int64]sim.Time),
	}
}

// AddNode creates a node and returns it.
func (n *Network) AddNode(name string) *Node {
	node := n.nodeSlab.next()
	*node = Node{ID: NodeID(len(n.nodes)), Name: name}
	n.nodes = append(n.nodes, node)
	n.adjStart = nil
	return node
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// NodeByName finds a node by name, or nil.
func (n *Network) NodeByName(name string) *Node {
	for _, node := range n.nodes {
		if node.Name == name {
			return node
		}
	}
	return nil
}

// Links returns all directed links.
func (n *Network) Links() []*Link { return n.links }

// Connect adds a bidirectional connection (two directed links) between a
// and b with the given per-direction bandwidth and latency. It returns the
// a→b link.
func (n *Network) Connect(a, b NodeID, kind config.LinkKind, bwPerDir float64, latency sim.Time) *Link {
	fwd := n.addLink(a, b, kind, bwPerDir, latency)
	n.addLink(b, a, kind, bwPerDir, latency)
	n.invalidateCaches()
	return fwd
}

// invalidateCaches drops every derived routing artifact. It must run on any
// topology mutation — adding links or changing link health — or cached
// routes/latencies keep steering traffic over a stale view of the fabric.
func (n *Network) invalidateCaches() {
	clear(n.routes)
	clear(n.priorityLat)
}

// SetLinkState changes the health of the directed link with the given ID
// and invalidates the route caches so subsequent routing goes around downed
// links. derate is the effective-bandwidth fraction and is only meaningful
// for LinkDerated, where it must be in (0, 1].
func (n *Network) SetLinkState(id int, state LinkState, derate float64) error {
	if id < 0 || id >= len(n.links) {
		return fmt.Errorf("fabric: no link with id %d", id)
	}
	if state == LinkDerated && (derate <= 0 || derate > 1) {
		return fmt.Errorf("fabric: derate %g outside (0, 1]", derate)
	}
	l := n.links[id]
	if state == LinkDown && l.state != LinkDown {
		l.bytesAtDown = l.bytes
	}
	l.state = state
	l.derate = derate
	n.invalidateCaches()
	return nil
}

// SetLinkStateBetween applies SetLinkState to every link joining a and b in
// either direction, returning how many links were changed. Connections are
// bidirectional link pairs, so failing "the link" between two dies means
// failing both directions.
func (n *Network) SetLinkStateBetween(a, b NodeID, state LinkState, derate float64) (int, error) {
	changed := 0
	for _, l := range n.links {
		if (l.Src == a && l.Dst == b) || (l.Src == b && l.Dst == a) {
			if err := n.SetLinkState(l.ID, state, derate); err != nil {
				return changed, err
			}
			changed++
		}
	}
	return changed, nil
}

func (n *Network) addLink(src, dst NodeID, kind config.LinkKind, bw float64, lat sim.Time) *Link {
	if n.Node(src) == nil || n.Node(dst) == nil {
		panic(fmt.Sprintf("fabric: invariant violated: links must join registered nodes (got %d-%d)", src, dst))
	}
	l := n.linkSlab.next()
	*l = Link{
		ID:   len(n.links),
		Name: n.nodes[src].Name + "->" + n.nodes[dst].Name,
		Kind: kind, Src: src, Dst: dst, BW: bw, Latency: lat,
	}
	n.links = append(n.links, l)
	n.adjStart = nil
	return l
}

// index builds the adjacency index from the link list: a counting sort on
// each link's source, filled from the back so each node's links keep
// their ID order.
func (n *Network) index() {
	start := make([]int32, len(n.nodes)+1)
	for _, l := range n.links {
		start[l.Src]++
	}
	// Each node's count becomes the end of its range...
	var end int32
	for u := range n.nodes {
		end += start[u]
		start[u] = end
	}
	start[len(n.nodes)] = end
	// ...and placing its links from the back moves it to the start.
	out := make([]*Link, len(n.links))
	for i := len(n.links) - 1; i >= 0; i-- {
		l := n.links[i]
		start[l.Src]--
		out[start[l.Src]] = l
	}
	n.adjStart, n.out = start, out
}

func routeKey(src, dst NodeID) int64 { return int64(src)<<32 | int64(uint32(dst)) }

// Route returns a hop-minimal path from src to dst (ties broken by lowest
// total latency, then by link insertion order for determinism). It returns
// an error if dst is unreachable.
func (n *Network) Route(src, dst NodeID) ([]*Link, error) {
	if src == dst {
		return nil, nil
	}
	key := routeKey(src, dst)
	if p, ok := n.routes[key]; ok {
		return p, nil
	}
	p, err := n.bfs(src, dst)
	if err != nil {
		return nil, err
	}
	n.routes[key] = p
	return p, nil
}

// searchState is one node's entry in a route search: the best path
// found to it so far, as a hop count, a total latency and its last link.
type searchState struct {
	seen bool
	hops int
	lat  sim.Time
	via  *Link
	prev NodeID
}

// bfs searches level by level from src, visiting each node's links in ID
// order and keeping, for every node, the path with the fewest hops and,
// among those, the lowest latency that reached it first.
func (n *Network) bfs(src, dst NodeID) ([]*Link, error) {
	if n.adjStart == nil {
		n.index()
	}
	if cap(n.best) < len(n.nodes) {
		n.best = make([]searchState, len(n.nodes))
	}
	best := n.best[:len(n.nodes)]
	clear(best)
	best[src].seen = true
	frontier, next := append(n.frontier[:0], src), n.next
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			su := best[u]
			for _, l := range n.out[n.adjStart[u]:n.adjStart[u+1]] {
				if l.state == LinkDown {
					continue
				}
				cand := searchState{seen: true, hops: su.hops + 1, lat: su.lat + l.Latency, via: l, prev: u}
				sv := &best[l.Dst]
				if !sv.seen || cand.hops < sv.hops || (cand.hops == sv.hops && cand.lat < sv.lat) {
					*sv = cand
					next = append(next, l.Dst)
				}
			}
		}
		frontier, next = next, frontier
	}
	n.frontier, n.next = frontier, next
	if !best[dst].seen {
		return nil, fmt.Errorf("%w: no route %s -> %s", ErrPartitioned, n.nodes[src].Name, n.nodes[dst].Name)
	}
	hops := best[dst].hops
	path := make([]*Link, hops)
	for at := dst; at != src; {
		s := best[at]
		hops--
		path[hops] = s.via
		at = s.prev
	}
	return path, nil
}

// Transfer moves bytes from src to dst starting at start, queueing behind
// earlier traffic on each link. It returns the completion time of the last
// byte at dst.
func (n *Network) Transfer(start sim.Time, src, dst NodeID, bytes int64) (sim.Time, error) {
	return n.TransferObserved(start, src, dst, bytes, nil)
}

// HopObserver receives one callback per link of an observed transfer:
// the link, when its serialization began (after queueing behind earlier
// traffic), and when the payload's tail cleared the link plus its
// latency. The span-tracing layer uses it to record per-link
// serialization child spans without perturbing the timing model.
type HopObserver func(l *Link, txStart, txEnd sim.Time)

// TransferObserved is Transfer with an optional per-hop observer; a nil
// observer makes it exactly Transfer.
func (n *Network) TransferObserved(start sim.Time, src, dst NodeID, bytes int64, obs HopObserver) (sim.Time, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	return n.TransferPathObserved(start, path, bytes, obs), nil
}

// TransferPathObserved is Transfer over an explicit, already-resolved
// path, with an optional per-hop observer.
func (n *Network) TransferPathObserved(start sim.Time, path []*Link, bytes int64, obs HopObserver) sim.Time {
	arrive := start
	end := start
	if bytes > 0 {
		n.injected += uint64(bytes) * uint64(len(path))
	}
	for _, l := range path {
		txStart := arrive
		if l.busyUntil > txStart {
			txStart = l.busyUntil
		}
		ser := l.SerializationTime(bytes)
		txEnd := txStart + ser
		l.busyUntil = txEnd
		if bytes > 0 {
			l.bytes += uint64(bytes)
		}
		// Cut-through: the head proceeds after the link latency; the
		// tail arrives when serialization completes downstream.
		arrive = txStart + l.Latency
		if txEnd+l.Latency > end {
			end = txEnd + l.Latency
		}
		if obs != nil {
			obs(l, txStart, txEnd+l.Latency)
		}
	}
	return end
}

// PathLatency reports the no-contention header latency along src->dst.
func (n *Network) PathLatency(src, dst NodeID) (sim.Time, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	var lat sim.Time
	for _, l := range path {
		lat += l.Latency
	}
	return lat, nil
}

// PathBandwidth reports the bottleneck bandwidth along src->dst.
func (n *Network) PathBandwidth(src, dst NodeID) (float64, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	if len(path) == 0 {
		return 0, fmt.Errorf("fabric: zero-hop path has no bandwidth")
	}
	bw := path[0].EffectiveBW()
	for _, l := range path[1:] {
		if b := l.EffectiveBW(); b < bw {
			bw = b
		}
	}
	return bw, nil
}

// Hops reports the hop count from src to dst.
func (n *Network) Hops(src, dst NodeID) (int, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	return len(path), nil
}

// Signal models a message on the high-priority communication channel the
// Infinity Fabric provides for ACE-ACE synchronization (§VI.A): it pays
// path latency plus a fixed small per-hop arbitration cost but does not
// queue behind bulk traffic and does not consume link bandwidth.
func (n *Network) Signal(start sim.Time, src, dst NodeID) (sim.Time, error) {
	key := routeKey(src, dst)
	if lat, ok := n.priorityLat[key]; ok {
		return start + lat, nil
	}
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	var lat sim.Time
	for _, l := range path {
		lat += l.Latency + 2*sim.Nanosecond
	}
	n.priorityLat[key] = lat
	return start + lat, nil
}

// TotalEnergyPJ sums transport energy over all links.
func (n *Network) TotalEnergyPJ() float64 {
	var e float64
	for _, l := range n.links {
		e += l.EnergyPJ()
	}
	return e
}

// TotalBytes sums payload bytes over all links (each hop counted).
func (n *Network) TotalBytes() uint64 {
	var b uint64
	for _, l := range n.links {
		b += l.bytes
	}
	return b
}

// InjectedBytes reports the bytes×hops admitted into the fabric — the
// "sent" side of the byte-conservation ledger that TotalBytes must match.
func (n *Network) InjectedBytes() uint64 { return n.injected }

// ResetStats clears per-link occupancy and byte counters, keeping topology.
func (n *Network) ResetStats() {
	for _, l := range n.links {
		l.busyUntil = 0
		l.bytes = 0
		l.bytesAtDown = 0
	}
	n.injected = 0
}
