// Package hsa models the Heterogeneous System Architecture user-mode
// queueing interface that MI300A exposes to software (§VI.A): user-mode
// visible queues filled with Architected Queueing Language (AQL) packets,
// doorbells that notify the packet processors, and completion signals.
// AQL packets deliberately describe a high-level goal ("launch kernel X
// with Y workgroups of Z threads") rather than register-level programming —
// this is exactly the property that lets the ACEs on multiple XCDs
// cooperatively pick up one packet and each launch a subset of it.
package hsa

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/spans"
)

// PacketType enumerates the AQL packet kinds the model supports.
type PacketType int

const (
	// PacketKernelDispatch launches a compute kernel.
	PacketKernelDispatch PacketType = iota
	// PacketBarrierAnd blocks queue processing until its dependency
	// signals reach zero.
	PacketBarrierAnd
)

// String names the packet type.
func (p PacketType) String() string {
	switch p {
	case PacketKernelDispatch:
		return "kernel_dispatch"
	case PacketBarrierAnd:
		return "barrier_and"
	default:
		return fmt.Sprintf("PacketType(%d)", int(p))
	}
}

// Dim3 is a three-dimensional size.
type Dim3 [3]int

// Count reports the product of dimensions.
func (d Dim3) Count() int { return d[0] * d[1] * d[2] }

// Packet is an AQL packet. KernelObject is an opaque payload interpreted
// by the GPU model (a compiled kernel in real hardware).
type Packet struct {
	Type          PacketType
	KernelName    string
	Grid          Dim3 // total work-items
	Workgroup     Dim3 // work-items per workgroup
	KernelObject  any
	KernargAddr   int64 // address of kernel arguments in memory
	Completion    *Signal
	BarrierDeps   []*Signal // for PacketBarrierAnd
	GroupSegBytes int64     // LDS bytes per workgroup
	// Span carries the producer's tracing context across the queue: when
	// the enqueuing side opened a dispatch root span, the packet processor
	// records its decode/execute/sync stages under it instead of opening a
	// second root. It must come from the processing partition's own
	// recorder, whose labels the stages record under. The zero value means
	// "no context" and costs nothing.
	Span spans.Ref
}

// Workgroups reports how many workgroups the dispatch launches (grid
// rounded up to whole workgroups per dimension).
func (p *Packet) Workgroups() int {
	n := 1
	for i := 0; i < 3; i++ {
		g, w := p.Grid[i], p.Workgroup[i]
		if g <= 0 {
			g = 1
		}
		if w <= 0 {
			w = 1
		}
		n *= (g + w - 1) / w
	}
	return n
}

// Validate checks dispatch packet well-formedness.
func (p *Packet) Validate() error {
	if p.Type == PacketBarrierAnd {
		return nil
	}
	for i := 0; i < 3; i++ {
		if p.Grid[i] <= 0 {
			return fmt.Errorf("hsa: grid dim %d is %d", i, p.Grid[i])
		}
		if p.Workgroup[i] <= 0 {
			return fmt.Errorf("hsa: workgroup dim %d is %d", i, p.Workgroup[i])
		}
	}
	if p.Workgroup.Count() > 1024 {
		return fmt.Errorf("hsa: workgroup size %d exceeds 1024", p.Workgroup.Count())
	}
	return nil
}

// Signal is an HSA signal: a 64-bit value decremented by producers and
// observed by consumers. SetTime records when the final transition to the
// observed value occurred in simulated time, so hosts can compute when a
// wait would have returned.
type Signal struct {
	Name    string
	value   int64
	setTime sim.Time
}

// NewSignal returns a signal with the given initial value.
func NewSignal(name string, initial int64) *Signal {
	return &Signal{Name: name, value: initial}
}

// Value reports the current value.
func (s *Signal) Value() int64 { return s.value }

// SetTime reports when the value last changed.
func (s *Signal) SetTime() sim.Time { return s.setTime }

// Sub subtracts d at simulated time t (the typical completion decrement).
func (s *Signal) Sub(t sim.Time, d int64) {
	s.value -= d
	if t > s.setTime {
		s.setTime = t
	}
}

// Reached reports whether the signal is at or below target, and when the
// transition happened.
func (s *Signal) Reached(target int64) (bool, sim.Time) {
	return s.value <= target, s.setTime
}

// Queue is a user-mode AQL queue: a power-of-two ring of packets with
// separate read/write indices, matching the HSA memory layout semantics.
// Doorbell, if set, is invoked on every enqueue with the new write index —
// this is how the packet processors (ACEs) learn about work.
type Queue struct {
	Name     string
	ring     []Packet
	mask     uint64
	writeIdx uint64
	readIdx  uint64
	Doorbell func(writeIdx uint64)
}

// ErrQueueFull is returned when the ring has no free slots.
var ErrQueueFull = errors.New("hsa: queue full")

// NewQueue returns a queue with the given power-of-two capacity.
func NewQueue(name string, capacity int) *Queue {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("hsa: invariant violated: AQL ring capacity must be a power of two for index masking (got %d)", capacity))
	}
	return &Queue{Name: name, ring: make([]Packet, capacity), mask: uint64(capacity - 1)}
}

// Depth reports packets currently queued.
func (q *Queue) Depth() int { return int(q.writeIdx - q.readIdx) }

// WriteIndex reports the producer index.
func (q *Queue) WriteIndex() uint64 { return q.writeIdx }

// ReadIndex reports the consumer index.
func (q *Queue) ReadIndex() uint64 { return q.readIdx }

// Enqueue validates and submits a packet, ringing the doorbell.
func (q *Queue) Enqueue(p Packet) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if q.Depth() == len(q.ring) {
		return ErrQueueFull
	}
	q.ring[q.writeIdx&q.mask] = p
	q.writeIdx++
	if q.Doorbell != nil {
		q.Doorbell(q.writeIdx)
	}
	return nil
}

// Peek returns the packet at the read index without consuming it. The
// multi-XCD dispatch protocol depends on this: an ACE in each XCD of a
// partition reads the same packet (§VI.A step ①).
func (q *Queue) Peek() (Packet, bool) {
	if q.Depth() == 0 {
		return Packet{}, false
	}
	return q.ring[q.readIdx&q.mask], true
}

// Advance retires the packet at the read index (done once per packet by
// the nominated ACE after all XCDs complete their subsets).
func (q *Queue) Advance() {
	if q.Depth() == 0 {
		panic(fmt.Sprintf("hsa: invariant violated: Advance on empty queue %s (read index must stay behind write index)", q.Name))
	}
	q.readIdx++
}
