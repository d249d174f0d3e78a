// Package topology models node-level architectures built from MI300
// sockets (§VIII, Fig. 18): each socket exposes eight x16 links (four
// capable of Infinity Fabric or PCIe, four IF-only in the model's
// bookkeeping), which can be composed into the paper's two exemplary
// nodes — four MI300A APUs fully connected by cache-coherent IF with two
// links per pair, and eight MI300X accelerators fully connected with one
// IF link per pair plus a PCIe link back to an EPYC host.
package topology

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// LinkUse is what a socket's x16 interface is configured as.
type LinkUse int

const (
	UseUnused LinkUse = iota
	UseIF             // coherent Infinity Fabric to another socket
	UsePCIe           // PCIe gen5 (host, NIC, storage)
)

// String names the use.
func (u LinkUse) String() string {
	switch u {
	case UseIF:
		return "IF"
	case UsePCIe:
		return "PCIe"
	default:
		return "unused"
	}
}

// Socket is one MI300 package in a node.
type Socket struct {
	Name string
	Spec *config.PlatformSpec
	// linkUses tracks the configuration of each of the socket's x16
	// interfaces.
	linkUses []LinkUse
}

// NewSocket returns a socket with all links unconfigured.
func NewSocket(name string, spec *config.PlatformSpec) *Socket {
	return &Socket{Name: name, Spec: spec, linkUses: make([]LinkUse, spec.SocketX16Links())}
}

// FreeLinks reports unconfigured x16 interfaces.
func (s *Socket) FreeLinks() int {
	var n int
	for _, u := range s.linkUses {
		if u == UseUnused {
			n++
		}
	}
	return n
}

// UsedFor reports how many links are configured for the given use.
func (s *Socket) UsedFor(use LinkUse) int {
	var n int
	for _, u := range s.linkUses {
		if u == use {
			n++
		}
	}
	return n
}

// claim configures one free link, returning its index.
func (s *Socket) claim(use LinkUse) (int, error) {
	for i, u := range s.linkUses {
		if u == UseUnused {
			s.linkUses[i] = use
			return i, nil
		}
	}
	return 0, fmt.Errorf("topology: %s has no free x16 links (all %d in use)", s.Name, len(s.linkUses))
}

// Connection is one configured inter-socket or socket-host link.
type Connection struct {
	A, B string // endpoint names ("host" for the CPU host)
	Use  LinkUse
	// BWPerDir is per-direction bandwidth in bytes/sec.
	BWPerDir float64
}

// Node is an assembled multi-socket system.
type Node struct {
	Name        string
	Sockets     []*Socket
	Host        *config.HostSpec // nil for self-hosted APU nodes
	Connections []Connection
}

// x16BWPerDir reports the per-direction bandwidth of one x16 link (§VIII:
// 64 GB/s per direction).
func x16BWPerDir(spec *config.PlatformSpec) float64 {
	if spec.IOD != nil {
		return spec.IOD.X16BWPerDir
	}
	return 32e9
}

// Connect joins two sockets with n IF links.
func (n *Node) Connect(a, b *Socket, links int) error {
	bw := x16BWPerDir(a.Spec)
	for i := 0; i < links; i++ {
		if _, err := a.claim(UseIF); err != nil {
			return err
		}
		if _, err := b.claim(UseIF); err != nil {
			return err
		}
		n.Connections = append(n.Connections, Connection{A: a.Name, B: b.Name, Use: UseIF, BWPerDir: bw})
	}
	return nil
}

// ConnectHost attaches a socket to the host CPU over PCIe.
func (n *Node) ConnectHost(s *Socket) error {
	return n.ConnectHostWith(s, UsePCIe, x16BWPerDir(s.Spec))
}

// ConnectHostWith attaches a socket to the host CPU with an explicit link
// type and bandwidth — coherent IF for Frontier-style nodes, PCIe
// otherwise.
func (n *Node) ConnectHostWith(s *Socket, use LinkUse, bwPerDir float64) error {
	if _, err := s.claim(use); err != nil {
		return err
	}
	n.Connections = append(n.Connections, Connection{A: s.Name, B: "host", Use: use, BWPerDir: bwPerDir})
	return nil
}

// QuadAPUNode builds the Fig. 18(a) node: four MI300A APUs in a
// fully-connected coherent IF topology with two x16 links between every
// pair (6 of 8 links per socket), leaving the rest for NICs/storage.
func QuadAPUNode() (*Node, error) { return fullMesh("4xMI300A", "APU", config.MI300A, 4, 2) }

// OctoAcceleratorNode builds the Fig. 18(b) node: eight MI300X modules
// fully connected with one IF x16 link per pair (7 links), the eighth
// link providing PCIe connectivity to EPYC hosts.
func OctoAcceleratorNode() (*Node, error) {
	n, err := fullMesh("8xMI300X", "GPU", config.MI300X, 8, 1)
	if err != nil {
		return nil, err
	}
	n.Host = config.MI300X().Host
	for _, s := range n.Sockets {
		if err := n.ConnectHost(s); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// fullMesh builds a node of count sockets of spec, named prefix0,
// prefix1, ..., with links IF links between every pair.
func fullMesh(name, prefix string, spec func() *config.PlatformSpec, count, links int) (*Node, error) {
	n := &Node{Name: name}
	for i := 0; i < count; i++ {
		n.Sockets = append(n.Sockets, NewSocket(fmt.Sprintf("%s%d", prefix, i), spec()))
	}
	for i := 0; i < count; i++ {
		for j := i + 1; j < count; j++ {
			if err := n.Connect(n.Sockets[i], n.Sockets[j], links); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// FrontierNode builds the Fig. 2 Frontier node architecture (§II.B): one
// optimized EPYC CPU and four MI250X accelerators, connected with
// coherent Infinity Fabric — a flat, cache-coherent address space that
// gives "an APU-like view of the different components: architecturally
// unified although implemented in physically distinct packages". Each GPU
// has a dedicated coherent IF link to the CPU (36 GB/s per direction) and
// the GPUs form a ring.
func FrontierNode() (*Node, error) {
	n := &Node{Name: "Frontier", Host: config.MI250X().Host}
	for i := 0; i < 4; i++ {
		n.Sockets = append(n.Sockets, NewSocket(fmt.Sprintf("MI250X-%d", i), config.MI250X()))
	}
	// GPU-GPU ring.
	for i := 0; i < 4; i++ {
		if err := n.Connect(n.Sockets[i], n.Sockets[(i+1)%4], 1); err != nil {
			return nil, err
		}
	}
	// Coherent CPU links.
	for _, s := range n.Sockets {
		if err := n.ConnectHostWith(s, UseIF, 36e9); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// IsFullyConnected reports whether every socket pair has a direct IF link.
func (n *Node) IsFullyConnected() bool {
	direct := map[[2]string]bool{}
	for _, c := range n.Connections {
		if c.Use == UseIF {
			direct[[2]string{c.A, c.B}] = true
			direct[[2]string{c.B, c.A}] = true
		}
	}
	for i := range n.Sockets {
		for j := range n.Sockets {
			if i == j {
				continue
			}
			if !direct[[2]string{n.Sockets[i].Name, n.Sockets[j].Name}] {
				return false
			}
		}
	}
	return true
}

// PairBWPerDir reports aggregate per-direction IF bandwidth between two
// sockets.
func (n *Node) PairBWPerDir(a, b string) float64 {
	var bw float64
	for _, c := range n.Connections {
		if c.Use != UseIF {
			continue
		}
		if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
			bw += c.BWPerDir
		}
	}
	return bw
}

// BisectionBWPerDir reports the per-direction bandwidth crossing an even
// split of the sockets (first half vs second half).
func (n *Node) BisectionBWPerDir() float64 {
	half := len(n.Sockets) / 2
	inFirst := map[string]bool{}
	for i := 0; i < half; i++ {
		inFirst[n.Sockets[i].Name] = true
	}
	var bw float64
	for _, c := range n.Connections {
		if c.Use != UseIF {
			continue
		}
		if inFirst[c.A] != inFirst[c.B] {
			bw += c.BWPerDir
		}
	}
	return bw
}

// BuildNetwork lowers the node onto a fabric.Network for timing
// experiments: one node per socket (plus the host), with parallel x16
// links between the same pair aggregated into one fabric link of summed
// bandwidth (traffic stripes across the physical links).
func (n *Node) BuildNetwork() *fabric.Network {
	net := fabric.New()
	ids := map[string]fabric.NodeID{}
	for _, s := range n.Sockets {
		ids[s.Name] = net.AddNode(s.Name, fabric.KindIOD).ID
	}
	if n.Host != nil {
		ids["host"] = net.AddNode("host", fabric.KindHost).ID
	}
	type pair struct {
		a, b string
		use  LinkUse
	}
	agg := map[pair]float64{}
	var order []pair
	for _, c := range n.Connections {
		if _, ok := ids[c.B]; !ok {
			continue // PCIe to NIC/storage endpoints not modeled
		}
		k := pair{c.A, c.B, c.Use}
		if _, seen := agg[k]; !seen {
			order = append(order, k)
		}
		agg[k] += c.BWPerDir
	}
	for _, k := range order {
		kind := config.LinkIFOP
		lat := 150 * sim.Nanosecond
		if k.use == UsePCIe {
			kind = config.LinkPCIe
			lat = 400 * sim.Nanosecond
		}
		net.Connect(ids[k.a], ids[k.b], kind, agg[k], lat)
	}
	return net
}

// Validate checks the §VIII link budget: no socket exceeds its eight x16
// links, and at most four links per socket carry PCIe (only four of the
// eight interfaces are PCIe-capable).
func (n *Node) Validate() error {
	for _, s := range n.Sockets {
		total := s.UsedFor(UseIF) + s.UsedFor(UsePCIe)
		if total > len(s.linkUses) {
			return fmt.Errorf("topology: %s uses %d of %d links", s.Name, total, len(s.linkUses))
		}
		if s.UsedFor(UsePCIe) > 4 {
			return fmt.Errorf("topology: %s uses %d PCIe links; only 4 interfaces are PCIe-capable",
				s.Name, s.UsedFor(UsePCIe))
		}
	}
	return nil
}
