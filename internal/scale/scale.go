// Package scale runs multi-socket scaling studies over the Fig. 18 node
// models: a workload's per-iteration compute/bandwidth demands are divided
// across p sockets, a collective (the iteration's halo exchange or
// gradient reduction) is timed on the node's fabric, and the resulting
// strong-scaling curve shows where the coherent Infinity Fabric topology
// stops paying — the node-level complement to the paper's single-socket
// evaluation.
package scale

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Point is one strong-scaling sample.
type Point struct {
	Sockets int
	// ComputeTime is the divided single-socket workload time.
	ComputeTime sim.Time
	// CommTime is the per-iteration collective cost at this scale.
	CommTime sim.Time
	// Total and Speedup are relative to one socket.
	Total      sim.Time
	Speedup    float64
	Efficiency float64
}

// StrongScale runs w's phases on the single-socket platform p1, then
// divides them across 1..maxSockets sockets of a node built by nodeFn,
// exchanging exchangeBytes per iteration through a direct all-reduce.
// iterations scales the communication count. The fabric of every
// communicator it builds is registered on a (a nil auditor skips that).
func StrongScale(a *audit.Auditor, w workload.Workload, p1 *core.Platform,
	nodeFn func() (*topology.Node, error), maxSockets, iterations int, exchangeBytes int64) ([]Point, error) {
	if maxSockets < 1 {
		return nil, fmt.Errorf("scale: need at least one socket")
	}
	// Single-socket baseline.
	baseSecs, _ := workload.Run(w, p1)
	baseTime := sim.FromSeconds(baseSecs)

	node, err := nodeFn()
	if err != nil {
		return nil, err
	}
	if maxSockets > len(node.Sockets) {
		maxSockets = len(node.Sockets)
	}

	var out []Point
	for p := 1; p <= maxSockets; p++ {
		pt := Point{Sockets: p, ComputeTime: baseTime / sim.Time(p)}
		if p > 1 {
			// Communicator over the first p sockets.
			sub := &topology.Node{Name: node.Name, Sockets: node.Sockets[:p], Host: node.Host}
			for _, c := range node.Connections {
				keep := false
				for _, s := range sub.Sockets {
					if c.A == s.Name {
						keep = true
					}
				}
				ok := c.B == "host"
				for _, s := range sub.Sockets {
					if c.B == s.Name {
						ok = true
					}
				}
				if keep && ok {
					sub.Connections = append(sub.Connections, c)
				}
			}
			comm, err := collective.NewComm(sub)
			if err != nil {
				return nil, err
			}
			audit.Fabric(a, comm.Network())
			var commTotal sim.Time
			var t sim.Time
			for it := 0; it < iterations; it++ {
				r, err := comm.DirectAllReduce(t, exchangeBytes)
				if err != nil {
					return nil, err
				}
				commTotal += r.Time
				t += r.Time
			}
			pt.CommTime = commTotal
		}
		pt.Total = pt.ComputeTime + pt.CommTime
		if pt.Total > 0 {
			pt.Speedup = float64(baseTime) / float64(pt.Total)
			pt.Efficiency = pt.Speedup / float64(p)
		}
		out = append(out, pt)
	}
	return out, nil
}
