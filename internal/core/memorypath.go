package core

import (
	"strconv"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/spans"
)

// This file implements the timing of every memory path in the package:
// compute chiplet → fabric (possibly crossing IODs over USR) → Infinity
// Cache slice → HBM channel, plus the host DDR and host↔device link paths
// for discrete platforms.

// memChunk is the granularity at which bulk traffic is spread over the
// interleaved memory system. One chunk covers several 4 KB interleave
// granules, so consecutive chunks land on different stacks/channels just
// as the §IV.D hash intends.
const memChunk = 64 * config.KiB

// nextStreamAddr hands out sequential physical addresses for timing-only
// bulk traffic, so it spreads over channels exactly like a streaming
// kernel's accesses would.
func (p *Platform) nextStreamAddr(n int64) int64 {
	a := p.streamPos
	p.streamPos = (p.streamPos + n) % (p.HBM.Capacity() / 2)
	return a
}

// memAccess charges one bulk access from a source fabric node to the
// memory system at a concrete physical address range and returns the
// completion time of the last byte.
func (p *Platform) memAccess(start sim.Time, src fabric.NodeID, addr, bytes int64, write bool) sim.Time {
	if bytes <= 0 {
		return start
	}
	// Span tracing: one root per transaction, one child per segment the
	// bytes cross (each link hop, the cache slice, each HBM channel
	// occupancy). Every callback below is nil unless this transaction was
	// sampled, so an untraced run does no extra work beyond the checks.
	var root spans.Ref
	var hopObs fabric.HopObserver
	var hbmObs mem.AccessObserver
	if p.spans.Enabled() {
		op := "mem.read"
		if write {
			op = "mem.write"
		}
		root = p.spans.Root(spans.KindMem, op, start)
	}
	if root.Valid() {
		root.Annotate("src", p.Net.Node(src).Name)
		root.Annotate("bytes", strconv.FormatInt(bytes, 10))
		hopObs = func(l *fabric.Link, txStart, txEnd sim.Time) {
			c := root.Child(spans.StageFabric, l.Name, txStart, txEnd)
			if l.State() != fabric.LinkUp {
				c.Annotate("link.state", l.State().String())
			}
		}
		hbmObs = func(hashedCh, servedCh int, s, e sim.Time, retry bool) {
			stage := spans.StageHBM
			if retry {
				stage = spans.StageHBMECC
			}
			c := root.Child(stage, "hbm.ch"+strconv.Itoa(servedCh), s, e)
			if servedCh != hashedCh {
				c.Annotate("rerouted", "ch"+strconv.Itoa(hashedCh)+"->ch"+strconv.Itoa(servedCh))
			}
		}
	}
	end := start
	for off := int64(0); off < bytes; off += memChunk {
		n := int64(memChunk)
		if off+n > bytes {
			n = bytes - off
		}
		a := addr + off
		stack := p.HBM.Map.Stack(a)
		// Legacy multi-device parts (MI250X presents each GCD as its own
		// accelerator) have per-device memory: traffic stays on the
		// source GCD's local stacks rather than interleaving packagewide.
		if p.Spec.IODs == 0 && p.Spec.DevicePresentation > 1 && len(p.xcdNodes) > 0 {
			if gcd, ok := p.gcdOf(src); ok {
				perGCD := p.HBM.Map.Stacks / len(p.xcdNodes)
				if perGCD > 0 {
					stack = gcd*perGCD + stack%perGCD
				}
			}
		}
		// Fabric stage: source chiplet → the IOD owning the stack →
		// stack PHY. Crossing IODs rides the USR mesh and contends there.
		done := start
		if t, err := p.Net.TransferObserved(start, src, p.HBMNode(stack), n, hopObs); err == nil {
			done = t
		}
		// Memory-side cache stage.
		hbmBytes := n
		if p.InfCache != nil {
			ch := p.HBM.Map.Channel(a)
			res := p.InfCache.Access(done, ch, a, n, write)
			if root.Valid() {
				result := "miss"
				if res.Hit {
					result = "hit"
				}
				c := root.Child(spans.StageCache, "mall"+strconv.Itoa(ch), done, res.Done,
					spans.Attr{Key: "result", Val: result})
				if wait := res.Begin - done; wait > 0 {
					c.Annotate("queue_ns", strconv.FormatFloat(wait.Nanoseconds(), 'f', 3, 64))
				}
			}
			done = res.Done
			hbmBytes = res.HBMBytes
		}
		// HBM channel stage for the residual traffic.
		if hbmBytes > 0 {
			if t := p.HBM.AccessObserved(done, a, hbmBytes, write, hbmObs); t > done {
				done = t
			}
		}
		if done > end {
			end = done
		}
	}
	root.Finish(end)
	return end
}

// gcdOf reverse-maps a fabric node to its XCD/GCD index.
func (p *Platform) gcdOf(src fabric.NodeID) (int, bool) {
	for i, n := range p.xcdNodes {
		if n == src {
			return i, true
		}
	}
	return 0, false
}

// GPUMemTime charges bytes of HBM traffic from XCD xcd (the gpu.ExecEnv
// callback). Addresses are synthetic sequential stream positions.
func (p *Platform) GPUMemTime(start sim.Time, xcd int, bytes int64, write bool) sim.Time {
	if bytes <= 0 {
		return start
	}
	src := p.XCDNode(xcd)
	return p.memAccess(start, src, p.nextStreamAddr(bytes), bytes, write)
}

// GPUMemTimeAt is GPUMemTime with an explicit physical address (used by
// the programming-model layer, which knows its buffers).
func (p *Platform) GPUMemTimeAt(start sim.Time, xcd int, addr, bytes int64, write bool) sim.Time {
	return p.memAccess(start, p.XCDNode(xcd), addr, bytes, write)
}

// CPUMemTime charges CPU-originated memory traffic. On a unified-memory
// APU this goes to the same HBM over the in-package fabric (one on-die
// hop on MI300A; two die-to-die hops on EHPv4 — Fig. 4 ③ falls out of the
// topology, not special-casing). On a discrete platform the host CPU uses
// its own DDR.
func (p *Platform) CPUMemTime(start sim.Time, ccd int, bytes int64, write bool) sim.Time {
	if bytes <= 0 {
		return start
	}
	if p.Spec.Memory == config.UnifiedMemory {
		return p.memAccess(start, p.CCDNode(ccd), p.nextStreamAddr(bytes), bytes, write)
	}
	return p.HostMemTime(start, ccd, bytes, write)
}

// CPUMemTimeAt is CPUMemTime at an explicit address (unified memory only).
func (p *Platform) CPUMemTimeAt(start sim.Time, ccd int, addr, bytes int64, write bool) sim.Time {
	if p.Spec.Memory == config.UnifiedMemory {
		return p.memAccess(start, p.CCDNode(ccd), addr, bytes, write)
	}
	return p.HostMemTime(start, ccd, bytes, write)
}

// HostMemTime charges host DDR traffic on discrete platforms.
func (p *Platform) HostMemTime(start sim.Time, _ int, bytes int64, write bool) sim.Time {
	if p.HostDDR == nil || bytes <= 0 {
		return start
	}
	addr := p.nextStreamAddr(bytes) % (p.HostDDR.Capacity() / 2)
	return p.HostDDR.Access(start, addr, bytes, write)
}

// HostLinkTransfer charges a host↔device bulk copy (the timing half of a
// hipMemcpy). On unified-memory platforms it returns start unchanged —
// there is no copy to make, which is the zero-copy benefit of §VI.B.
func (p *Platform) HostLinkTransfer(start sim.Time, bytes int64, toDevice bool) sim.Time {
	if p.Spec.Memory == config.UnifiedMemory || bytes <= 0 {
		return start
	}
	src, dst := p.hostNode, p.IODNode(0)
	if !toDevice {
		src, dst = dst, src
	}
	end, err := p.Net.Transfer(start, src, dst, bytes)
	if err != nil {
		return start
	}
	// The copy also occupies DDR on the host side and HBM on the device.
	ddrDone := p.HostMemTime(start, 0, bytes, !toDevice)
	hbmDone := p.HBM.Access(start, p.nextStreamAddr(bytes), bytes, toDevice)
	if ddrDone > end {
		end = ddrDone
	}
	if hbmDone > end {
		end = hbmDone
	}
	return end
}

// FlagVisibilityLatency reports how quickly a CPU spin-loop observes a
// flag written by a GPU CU: one coherence probe across the fabric between
// the producing XCD and the consuming CCD (Fig. 15's enabling mechanism).
func (p *Platform) FlagVisibilityLatency() sim.Time {
	if len(p.xcdNodes) == 0 {
		return 200 * sim.Nanosecond
	}
	lat, err := p.Net.PathLatency(p.XCDNode(0), p.CCDNode(0))
	if err != nil {
		return 200 * sim.Nanosecond
	}
	// Request + response + directory lookup.
	return 2*lat + 40*sim.Nanosecond
}

// CPUToHBMHopsRange reports the minimum and maximum number of die-to-die
// fabric crossings (USR or substrate SerDes; on-die links don't count)
// from a CCD to the HBM stacks — the §III.B EHPv4 critique quantified:
// on EHPv4 every CPU access to HBM pays two SerDes hops (Fig. 4 ③),
// while on MI300A the CCDs' local stacks are reachable with zero die
// crossings and even the farthest cost only USR hops.
func (p *Platform) CPUToHBMHopsRange() (min, max int) {
	min = 1 << 30
	src := p.CCDNode(0)
	for s := range p.hbmNodes {
		path, err := p.Net.Route(src, p.hbmNodes[s])
		if err != nil {
			continue
		}
		hops := 0
		for _, l := range path {
			if l.Kind == config.LinkSerDes || l.Kind == config.LinkUSR {
				hops++
			}
		}
		if hops > max {
			max = hops
		}
		if hops < min {
			min = hops
		}
	}
	if min == 1<<30 {
		min = 0
	}
	return
}

// CrossGPUBW reports the bottleneck bandwidth between the two GPU halves
// of the package — MI300A's USR mesh versus EHPv4's substrate SerDes
// (Fig. 4 ①) versus MI250X's bridge.
func (p *Platform) CrossGPUBW() float64 {
	if len(p.xcdNodes) < 2 {
		return 0
	}
	half := len(p.xcdNodes) / 2
	bw, err := p.Net.PathBandwidth(p.xcdNodes[0], p.xcdNodes[half])
	if err != nil {
		return 0
	}
	return bw
}

// MeasureHBMBandwidth saturates the memory system with streaming traffic
// from every XCD and reports achieved bytes/sec — the experiment behind
// the Fig. 19 bandwidth row.
func (p *Platform) MeasureHBMBandwidth(totalBytes int64) float64 {
	p.ResetStats()
	var end sim.Time
	chunk := int64(1 * config.MiB)
	n := len(p.xcdNodes)
	if n == 0 {
		n = 1
	}
	for off := int64(0); off < totalBytes; off += chunk {
		xcd := int(off/chunk) % n
		if done := p.GPUMemTime(0, xcd, chunk, off%2 == 0); done > end {
			end = done
		}
	}
	if end <= 0 {
		return 0
	}
	return float64(totalBytes) / end.Seconds()
}
