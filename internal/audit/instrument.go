package audit

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// This file wires component ledgers into an Auditor. Each helper is safe
// to call unconditionally: registration on a nil auditor is a no-op, so
// instrumented construction paths carry no audit branches.

// Fabric registers byte-conservation checks for a network: every byte
// injected into the fabric is carried by exactly the links on its path
// (injected = delivered per hop), and links downed by RAS carry no new
// traffic afterwards — traffic must reroute, not cross dead hardware.
func Fabric(a *Auditor, n *fabric.Network) {
	if !a.Enabled() || n == nil {
		return
	}
	a.Register("fabric", func(sim.Time) []Violation {
		var vs []Violation
		if want, got := n.InjectedBytes(), n.TotalBytes(); want != got {
			vs = append(vs, Violation{
				Ledger: "byte-conservation",
				Detail: "bytes injected into the fabric must equal bytes carried across link hops",
				Want:   float64(want), Got: float64(got),
			})
		}
		for _, l := range n.Links() {
			if l.State() == fabric.LinkDown && l.BytesCarried() > l.BytesAtDown() {
				vs = append(vs, Violation{
					Ledger: "down-link-quiesced",
					Detail: fmt.Sprintf("link %s carried traffic while down (stale route not invalidated)", l.Name),
					Want:   float64(l.BytesAtDown()), Got: float64(l.BytesCarried()),
				})
			}
		}
		return vs
	})
}

// HBM registers request/response and ECC-retry accounting for a memory
// device under the given component name (e.g. "hbm", "hostddr"): every
// issued interleave chunk occupies exactly one channel once, plus exactly
// one extra occupancy per ECC retry, and retired channels serve no new
// operations.
func HBM(a *Auditor, h *mem.HBM, component string) {
	if !a.Enabled() || h == nil {
		return
	}
	a.Register(component, func(sim.Time) []Violation {
		var vs []Violation
		chs := h.Channels()
		var ops uint64
		for i := range chs {
			r, w := chs[i].Counts()
			ops += r + w
		}
		if want, got := h.ChunksIssued()+h.ECCEvents(), ops; want != got {
			vs = append(vs, Violation{
				Ledger: "request-accounting",
				Detail: "channel operations must equal issued chunks plus ECC retries",
				Want:   float64(want), Got: float64(got),
			})
		}
		for i := range chs {
			c := &chs[i]
			if !c.Retired() {
				continue
			}
			r, w := c.Counts()
			if r+w > c.OpsAtRetire() {
				vs = append(vs, Violation{
					Ledger: "retired-channel-quiesced",
					Detail: fmt.Sprintf("channel %d served operations after retirement (interleave redirect leaked)", c.Index),
					Want:   float64(c.OpsAtRetire()), Got: float64(r + w),
				})
			}
		}
		return vs
	})
}

// InfinityCache registers slice-accounting for the memory-side cache:
// every access registered exactly one hit or miss across the slices.
func InfinityCache(a *Auditor, ic *cache.InfinityCache) {
	if !a.Enabled() || ic == nil {
		return
	}
	a.Register("infcache", func(sim.Time) []Violation {
		s := ic.Stats()
		if want, got := ic.Accesses(), s.Hits+s.Misses; want != got {
			return []Violation{{
				Ledger: "slice-accounting",
				Detail: "accesses must equal hits plus misses across slices",
				Want:   float64(want), Got: float64(got),
			}}
		}
		return nil
	})
}

// Partition registers dispatch and completion-signal accounting for a GPU
// partition: workgroups enqueued by processed packets equal workgroups
// assigned to live XCDs (none dropped or double-assigned, including after
// declared XCD loss), and every armed completion signal was decremented.
func Partition(a *Auditor, p *gpu.Partition) {
	if !a.Enabled() || p == nil {
		return
	}
	a.Register("gpu."+p.Name, func(sim.Time) []Violation {
		var vs []Violation
		if enq, asg := p.DispatchLedger(); enq != asg {
			vs = append(vs, Violation{
				Ledger: "dispatch-accounting",
				Detail: "workgroups enqueued must equal workgroups assigned to live XCDs",
				Want:   float64(enq), Got: float64(asg),
			})
		}
		if armed, done := p.SignalLedger(); armed != done {
			vs = append(vs, Violation{
				Ledger: "completion-signals",
				Detail: "every completion signal armed on a processed packet must be decremented",
				Want:   float64(armed), Got: float64(done),
			})
		}
		return vs
	})
}

// Engine registers the drain-quiescence check: when the audit runs, every
// remaining live event must be parked at Forever (a sentinel that never
// fires). Real future work left in the queue means the run declared
// completion before the simulation actually finished.
func Engine(a *Auditor, e *sim.Engine) {
	if !a.Enabled() || e == nil {
		return
	}
	a.Register("engine", func(sim.Time) []Violation {
		if e.Quiescent() {
			return nil
		}
		return []Violation{{
			Ledger: "drain-quiescence",
			Detail: "live events below Forever remain queued at drain (run ended with work pending)",
			Want:   0, Got: float64(e.Pending()),
		}}
	})
}
