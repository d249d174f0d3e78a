// Package collective implements the communication collectives that HPC
// and ML workloads run over the Fig. 18 node topologies: ring and
// fully-connected (direct) all-reduce, each timed on the node's fabric
// model with per-link contention. The paper's node designs — two x16
// links per APU pair (Fig. 18a) or one per accelerator pair (Fig. 18b) —
// determine which algorithm wins at which message size.
package collective

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Comm is a communicator over the sockets of a node.
type Comm struct {
	node  *topology.Node
	net   *fabric.Network
	ranks []fabric.NodeID
}

// NewComm builds a communicator spanning every socket in the node.
func NewComm(n *topology.Node) (*Comm, error) {
	net := n.BuildNetwork()
	c := &Comm{node: n, net: net}
	for _, s := range n.Sockets {
		fn := net.NodeByName(s.Name)
		if fn == nil {
			return nil, fmt.Errorf("collective: socket %s missing from network", s.Name)
		}
		c.ranks = append(c.ranks, fn.ID)
	}
	if len(c.ranks) < 2 {
		return nil, fmt.Errorf("collective: need >= 2 ranks, have %d", len(c.ranks))
	}
	return c, nil
}

// Network exposes the underlying fabric (for stats).
func (c *Comm) Network() *fabric.Network { return c.net }

// Result is the outcome of one collective.
type Result struct {
	Algorithm string
	Bytes     int64
	Steps     int
	Time      sim.Time
	// BusBW is the conventional "bus bandwidth" figure of merit:
	// algorithm-bytes / time (2(p-1)/p × n for all-reduce).
	BusBW float64
}

// send issues one point-to-point transfer and returns its completion.
func (c *Comm) send(start sim.Time, from, to int, bytes int64) (sim.Time, error) {
	return c.net.Transfer(start, c.ranks[from], c.ranks[to], bytes)
}

// RingAllReduce reduces bytes across all ranks with the classic
// 2(p-1)-step ring: reduce-scatter then all-gather, chunk = n/p.
func (c *Comm) RingAllReduce(start sim.Time, bytes int64) (*Result, error) {
	p := len(c.ranks)
	chunk := bytes / int64(p)
	if chunk == 0 {
		chunk = 1
	}
	t := start
	steps := 2 * (p - 1)
	for s := 0; s < steps; s++ {
		var stepEnd sim.Time
		for r := 0; r < p; r++ {
			done, err := c.send(t, r, (r+1)%p, chunk)
			if err != nil {
				return nil, err
			}
			if done > stepEnd {
				stepEnd = done
			}
		}
		t = stepEnd
	}
	res := &Result{Algorithm: "ring-allreduce", Bytes: bytes, Steps: steps, Time: t - start}
	res.BusBW = algoBusBW(bytes, p, res.Time)
	return res, nil
}

// DirectAllReduce exploits the fully-connected topology: one
// reduce-scatter step where every rank sends each peer its 1/p chunk
// directly, then one all-gather step — 2 steps total, at the cost of
// p-1 concurrent flows per link pair.
func (c *Comm) DirectAllReduce(start sim.Time, bytes int64) (*Result, error) {
	p := len(c.ranks)
	chunk := bytes / int64(p)
	if chunk == 0 {
		chunk = 1
	}
	t := start
	for phase := 0; phase < 2; phase++ {
		var stepEnd sim.Time
		for r := 0; r < p; r++ {
			for peer := 0; peer < p; peer++ {
				if peer == r {
					continue
				}
				done, err := c.send(t, r, peer, chunk)
				if err != nil {
					return nil, err
				}
				if done > stepEnd {
					stepEnd = done
				}
			}
		}
		t = stepEnd
	}
	res := &Result{Algorithm: "direct-allreduce", Bytes: bytes, Steps: 2, Time: t - start}
	res.BusBW = algoBusBW(bytes, p, res.Time)
	return res, nil
}

// algoBusBW computes the all-reduce bus bandwidth: 2(p-1)/p × n / time.
func algoBusBW(bytes int64, p int, t sim.Time) float64 {
	if t <= 0 {
		return 0
	}
	return 2 * float64(p-1) / float64(p) * float64(bytes) / t.Seconds()
}
