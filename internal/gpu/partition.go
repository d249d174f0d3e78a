package gpu

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/hsa"
	"repro/internal/sim"
	"repro/internal/spans"
)

// ErrNoCompute reports that a dispatch found no XCD able to execute work:
// every member die is either offline or has all CUs disabled. It is the
// compute-side analogue of fabric.ErrPartitioned.
var ErrNoCompute = errors.New("gpu: partition has no online XCD with enabled CUs")

// Policy selects how a dispatch's workgroups are divided among the XCDs of
// a partition. §VI.A: "The decision of which workgroups are scheduled into
// which XCD is configurable to allow tradeoffs between factors like
// inter-workgroup data reuse in the XCD's L2 cache versus initiating work
// on as many XCDs as possible to maximize memory bandwidth."
type Policy int

const (
	// PolicyRoundRobin interleaves consecutive workgroups across XCDs,
	// engaging all XCDs (and their memory paths) as fast as possible.
	PolicyRoundRobin Policy = iota
	// PolicyBlock gives each XCD a contiguous chunk, maximizing
	// inter-workgroup data reuse in each XCD's L2.
	PolicyBlock
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyRoundRobin {
		return "round-robin"
	}
	return "block"
}

// Partition presents a set of XCDs as one logical GPU (§VI.A). A partition
// of one XCD is a CPX-style device; MI300A's default SPX partition holds
// all six.
type Partition struct {
	Name   string
	Policy Policy
	xcds   []*XCD
	env    *ExecEnv
	// offline marks member dies lost at runtime (RAS XCD-loss); parallel
	// to xcds. Offline dies receive no work but keep their stats.
	offline []bool

	// Dispatch ledger: every workgroup a processed packet enqueued must be
	// assigned to exactly one live XCD (the per-ACE assign() computation
	// covers [0, n) with no overlap), and every completion signal armed on
	// a processed packet must be decremented exactly once. The audit layer
	// checks both at drain.
	wgsEnqueued  uint64
	wgsAssigned  uint64
	signalsArmed uint64
	signalsDone  uint64

	// traced holds the partition's span labels once a dispatch records.
	traced *dispatchSpans
}

// dispatchSpans holds a partition's dispatch-span labels and keys,
// registered on its first traced dispatch so that later ones record by
// index and annotate with integers.
type dispatchSpans struct {
	decode, execute, sync []spans.Label // by member position
	doorbell              spans.Label
	kPartition, kPolicy   spans.Text
	kWorkgroups, kLive    spans.Text
	kQueue                spans.Text
	partition, queue      spans.Text
}

// spanLabels returns the partition's dispatch-span labels, registering
// them on the recorder first.
func (p *Partition) spanLabels() *dispatchSpans {
	if p.traced != nil {
		return p.traced
	}
	rec := p.env.Spans
	d := &dispatchSpans{
		doorbell:    rec.Label(spans.StageEnqueue, "doorbell:"+p.queueName()),
		kPartition:  rec.Text("partition"),
		kPolicy:     rec.Text("policy"),
		kWorkgroups: rec.Text("workgroups"),
		kLive:       rec.Text("live_xcds"),
		kQueue:      rec.Text("queue"),
		partition:   rec.Text(p.Name),
		queue:       rec.Text(p.queueName()),
	}
	for _, x := range p.xcds {
		id := strconv.Itoa(x.ID)
		d.decode = append(d.decode, rec.Label(spans.StageDecode, "xcd"+id+".decode"))
		d.execute = append(d.execute, rec.Label(spans.StageExecute, "xcd"+id+".execute"))
		d.sync = append(d.sync, rec.Label(spans.StageSync, "xcd"+id+".sync"))
	}
	p.traced = d
	return d
}

// queueName names the queue Dispatch submits through.
func (p *Partition) queueName() string { return p.Name + ".q" }

// NewPartition groups xcds into one logical device.
func NewPartition(name string, xcds []*XCD, env *ExecEnv, policy Policy) *Partition {
	if len(xcds) == 0 {
		panic("gpu: invariant violated: a partition must contain at least one XCD (got 0)")
	}
	if env == nil {
		env = &ExecEnv{}
	}
	return &Partition{Name: name, Policy: policy, xcds: xcds, env: env, offline: make([]bool, len(xcds))}
}

// XCDs returns the member dies.
func (p *Partition) XCDs() []*XCD { return p.xcds }

// SetXCDOnline changes whether member die i (by position in the partition)
// receives work. Taking a die offline mid-run models §IV.B-style loss at
// runtime: subsequent dispatches redistribute across the survivors.
func (p *Partition) SetXCDOnline(i int, online bool) error {
	if i < 0 || i >= len(p.xcds) {
		return fmt.Errorf("gpu: partition %s has no XCD at position %d", p.Name, i)
	}
	p.offline[i] = !online
	return nil
}

// XCDOnline reports whether member die i receives work.
func (p *Partition) XCDOnline(i int) bool {
	return i >= 0 && i < len(p.xcds) && !p.offline[i]
}

// OnlineXCDs reports how many member dies currently receive work.
func (p *Partition) OnlineXCDs() int {
	n := 0
	for i := range p.xcds {
		if !p.offline[i] {
			n++
		}
	}
	return n
}

// liveXCDs returns the positions of dies that can actually execute work:
// online and with at least one enabled CU.
func (p *Partition) liveXCDs() []int {
	var live []int
	for i, x := range p.xcds {
		if !p.offline[i] && x.EnabledCUs() > 0 {
			live = append(live, i)
		}
	}
	return live
}

// TotalCUs reports enabled CUs across the online dies of the partition.
func (p *Partition) TotalCUs() int {
	var n int
	for i, x := range p.xcds {
		if !p.offline[i] {
			n += x.EnabledCUs()
		}
	}
	return n
}

// DispatchLedger reports (workgroups enqueued by processed packets,
// workgroups assigned to live XCDs) — equal when dispatch conserved work.
func (p *Partition) DispatchLedger() (enqueued, assigned uint64) {
	return p.wgsEnqueued, p.wgsAssigned
}

// SignalLedger reports (completion signals armed on processed packets,
// completion signals decremented) — equal when no completion was lost.
func (p *Partition) SignalLedger() (armed, done uint64) {
	return p.signalsArmed, p.signalsDone
}

// wgRange is the workgroups one XCD runs: count flat IDs from first,
// stride apart, in ascending order.
type wgRange struct{ first, stride, count int }

// assign returns the share of flat workgroup IDs [0,n) that the li-th of
// nLive live dies runs, by policy. Every ACE computes this same
// assignment independently — it "knows how many XCDs are in the
// partition, so it knows that its XCD is only responsible for executing
// a subset of the kernel's total workgroups" (§VI.A). assign divides work
// among the live dies only — when an XCD is lost at runtime, the
// identical per-ACE computation lands the dead die's share on the
// survivors.
func (p *Partition) assign(n, li, nLive int) wgRange {
	if p.Policy == PolicyBlock {
		per := (n + nLive - 1) / nLive
		first := li * per
		return wgRange{first: first, stride: 1, count: max(0, min(per, n-first))}
	}
	// PolicyRoundRobin: die li runs li, li+nLive, li+2·nLive, …
	return wgRange{first: li, stride: nLive, count: (n - li + nLive - 1) / nLive}
}

// Process consumes the packet at the head of q, runs it across the
// partition following the Fig. 13 flow, and returns the kernel completion
// time. The queue's read index advances and the packet's completion
// signal (if any) is decremented at the completion time.
func (p *Partition) Process(now sim.Time, q *hsa.Queue) (sim.Time, error) {
	pkt, ok := q.Peek()
	if !ok {
		return now, fmt.Errorf("gpu: queue %s empty", q.Name)
	}
	if pkt.Type == hsa.PacketBarrierAnd {
		// Barrier: completes when every dependency has signaled.
		done := now
		for _, dep := range pkt.BarrierDeps {
			if reached, at := dep.Reached(0); reached {
				if at > done {
					done = at
				}
			} else {
				return now, fmt.Errorf("gpu: barrier dependency %s unsatisfied", dep.Name)
			}
		}
		q.Advance()
		if pkt.Completion != nil {
			p.signalsArmed++
			pkt.Completion.Sub(done, 1)
			p.signalsDone++
		}
		return done, nil
	}

	k, ok := pkt.KernelObject.(*KernelSpec)
	if !ok || k == nil {
		return now, fmt.Errorf("gpu: packet %q carries no KernelSpec", pkt.KernelName)
	}
	if err := k.Validate(); err != nil {
		return now, err
	}

	live := p.liveXCDs()
	if len(live) == 0 {
		return now, fmt.Errorf("%w: cannot run %q", ErrNoCompute, pkt.KernelName)
	}
	nWG := pkt.Workgroups()
	wgSize := pkt.Workgroup.Count()
	p.wgsEnqueued += uint64(nWG)

	// Span tracing: reuse the producer's root when the packet carries one
	// (its sampling decision is already made); otherwise offer a fresh
	// root candidate for this dispatch.
	root := pkt.Span
	if !root.Attached() && p.env.Spans.Enabled() {
		root = p.env.Spans.Root(spans.KindDispatch, "dispatch:"+pkt.KernelName, now)
	}
	var d *dispatchSpans
	if root.Valid() {
		d = p.spanLabels()
		root.AnnotateText(d.kPartition, d.partition)
		root.AnnotateText(d.kPolicy, p.env.Spans.Text(p.Policy.String()))
		root.AnnotateInt(d.kWorkgroups, int64(nWG))
		root.AnnotateInt(d.kLive, int64(len(live)))
	}

	// ① Every live XCD's ACE reads and decodes the AQL packet.
	// ② Each sets up its local microarchitecture and launches its subset.
	// ③④ Completion synchronization to the nominated XCD (first live die).
	nominated := live[0]
	var kernelDone sim.Time
	for li, i := range live {
		x := p.xcds[i]
		wgs := p.assign(nWG, li, len(live))
		p.wgsAssigned += uint64(wgs.count)
		decoded := x.decode(now)
		subsetDone := x.executeWorkgroups(p.env, decoded, k, wgs, wgSize, pkt.KernargAddr)
		// Each XCD signals "my waves completed, writes visible" to the
		// nominated XCD over the high-priority channel.
		arrive := subsetDone
		if i != nominated {
			arrive = p.env.signalTime(subsetDone, x.ID, p.xcds[nominated].ID)
			x.stats.SyncMessages++
		}
		if root.Valid() {
			root.ChildLabeled(d.decode[i], now, decoded)
			root.ChildLabeled(d.execute[i], decoded, subsetDone).AnnotateInt(d.kWorkgroups, int64(wgs.count))
			if i != nominated {
				root.ChildLabeled(d.sync[i], subsetDone, arrive)
			}
		}
		if arrive > kernelDone {
			kernelDone = arrive
		}
	}
	q.Advance()
	if pkt.Completion != nil {
		p.signalsArmed++
		pkt.Completion.Sub(kernelDone, 1)
		p.signalsDone++
		if root.Valid() {
			root.Child(spans.StageComplete, "signal:"+pkt.Completion.Name, kernelDone, kernelDone)
		}
	}
	root.Finish(kernelDone)
	return kernelDone, nil
}

// Dispatch is a convenience wrapper: it enqueues a 1-D kernel dispatch on
// a fresh queue and processes it, returning the completion time.
func (p *Partition) Dispatch(now sim.Time, k *KernelSpec, items, wgSize int, kernarg int64) (sim.Time, error) {
	if wgSize <= 0 {
		wgSize = 256
	}
	q := hsa.NewQueue(p.queueName(), 2)
	sig := hsa.NewSignal(k.Name+".done", 1)
	// Open the dispatch root at enqueue time so the trace covers the full
	// submission path; the doorbell ring marks the end of the enqueue stage.
	var root spans.Ref
	if p.env.Spans.Enabled() {
		root = p.env.Spans.Root(spans.KindDispatch, "dispatch:"+k.Name, now)
	}
	if root.Valid() {
		d := p.spanLabels()
		root.AnnotateText(d.kQueue, d.queue)
	}
	q.Doorbell = func(uint64) {
		if root.Valid() {
			root.ChildLabeled(p.traced.doorbell, now, now)
		}
	}
	err := q.Enqueue(hsa.Packet{
		Type:         hsa.PacketKernelDispatch,
		KernelName:   k.Name,
		Grid:         hsa.Dim3{items, 1, 1},
		Workgroup:    hsa.Dim3{wgSize, 1, 1},
		KernelObject: k,
		KernargAddr:  kernarg,
		Completion:   sig,
		Span:         root,
	})
	if err != nil {
		return now, err
	}
	done, err := p.Process(now, q)
	if err != nil {
		return now, err
	}
	if v := sig.Value(); v != 0 {
		return done, fmt.Errorf("gpu: completion signal at %d after dispatch", v)
	}
	return done, nil
}
