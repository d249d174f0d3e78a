package sim

// The event queue is one list of arena slots, consumed from a head
// cursor and sorted lazily, plus a FIFO of Forever sentinels (which never
// fire, so never belong in the time-ordered list).
//
// Events live by value in a slot arena (Engine.events) threaded with a
// free list, so steady-state scheduling recycles slots instead of
// allocating. An EventID is (slot index, generation); the generation
// bumps every time a slot is reclaimed, so stale IDs (cancels after the
// event fired, double cancels) are detectably dead.
//
// Events fire in strictly ascending (at, seq) order, where seq is the
// global schedule counter, so events at one instant fire in schedule
// order. Between exported calls, queue[head:] holds every queued finite
// event, cancelled ones not yet reaped included, sorted by (at, seq)
// unless unsorted is set, and forever holds the Forever events in
// schedule order.

// slot states. A slot is free (on the free list), queued (live in the
// queue), or dead (cancelled but not yet swept out of the queue).
type slotState uint8

const (
	slotFree slotState = iota
	slotQueued
	slotDead
)

// event is one scheduled callback, stored by value in the arena.
type event struct {
	at    Time
	seq   uint64
	fn    Handler
	class Class
	gen   uint32
	state slotState
}

// alloc takes a slot off the free list, growing the arena only when the
// list is empty (the arena never shrinks; its high-water mark is the
// steady-state footprint).
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.events = append(e.events, event{})
	return int32(len(e.events) - 1)
}

// reclaim returns a slot to the free list, dropping the handler reference
// (so the engine never pins a closure past its event) and bumping the
// generation so outstanding EventIDs for this slot go stale.
func (e *Engine) reclaim(idx int32) {
	ev := &e.events[idx]
	ev.fn = nil
	ev.state = slotFree
	ev.gen++
	e.free = append(e.free, idx)
}

// place queues a newly scheduled event: Forever sentinels join their
// FIFO, finite events the end of the list, which stays sorted unless the
// event is earlier than the one before it.
func (e *Engine) place(idx int32) {
	at := e.events[idx].at
	if at == Forever {
		e.forever = append(e.forever, idx)
		return
	}
	if n := len(e.queue); n > e.head && at < e.events[e.queue[n-1]].at {
		e.unsorted = true
	}
	e.queue = append(e.queue, idx)
}

// compact drops the consumed prefix of the list when it dominates the
// slice, bounding the list's memory at ~2× its live tail even across
// very long same-instant cascades.
func (e *Engine) compact() {
	if e.head < 1024 || e.head*2 < len(e.queue) {
		return
	}
	n := copy(e.queue, e.queue[e.head:])
	e.queue = e.queue[:n]
	e.head = 0
}

// eventLess orders two arena slots by (at, seq) — the engine's total
// firing order (seq is unique, so this is a strict total order).
func (e *Engine) eventLess(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// sortTail puts queue[head:] in firing order with a natural merge sort:
// each pass merges adjacent ascending runs pairwise through the scratch
// buffer, so a tail of n slots in r runs costs O(n log r) comparisons. A
// sorted list plus one late append is two runs and one linear pass; no
// tail costs more than O(n log n). (The standard library's sorts call a
// comparator they cannot inline; on a 1,000-event tail that made the
// sort 3.5× slower.)
func (e *Engine) sortTail() {
	tail := e.queue[e.head:]
	if cap(e.scratch) < len(tail) {
		e.scratch = make([]int32, len(tail))
	}
	buf := e.scratch[:len(tail)]
	for {
		runs := 0
		for lo := 0; lo < len(tail); runs++ {
			mid := e.runEnd(tail, lo)
			hi := e.runEnd(tail, mid)
			e.merge(buf[lo:hi], tail[lo:mid], tail[mid:hi])
			lo = hi
		}
		copy(tail, buf)
		if runs <= 1 {
			return
		}
	}
}

// minRun is the shortest run sortTail merges: runEnd extends a shorter
// one by insertion sort, which beats merge passes on a small block.
const minRun = 16

// runEnd returns the end of the ascending run of s that starts at i,
// first extending a run shorter than minRun by insertion sort. A run
// ends only where the order strictly descends, so every merged run is
// found whole on the next pass and each pass at least halves the count.
func (e *Engine) runEnd(s []int32, i int) int {
	if i == len(s) {
		return i
	}
	j := i + 1
	for j < len(s) && !e.eventLess(s[j], s[j-1]) {
		j++
	}
	for end := min(i+minRun, len(s)); j < end; j++ {
		for k := j; k > i && e.eventLess(s[k], s[k-1]); k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
	return j
}

// merge writes the ascending runs a and b, merged, to dst.
func (e *Engine) merge(dst, a, b []int32) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if e.eventLess(b[0], a[0]) {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// purgeThreshold is the dead-slot count above which Cancel sweeps the
// list (once dead slots also outnumber live ones): cancelled events
// linger in Pending until reaped, yet a schedule/cancel loop cannot grow
// queued storage past ~2× the live set.
const purgeThreshold = 64

// maybePurge sweeps the list, reclaiming dead slots, once they dominate.
// The survivors keep their relative order, so a sorted list stays sorted
// and firing order is unaffected. Forever sentinels are reclaimed
// eagerly on Cancel and are never dead here.
func (e *Engine) maybePurge() {
	if e.deadCount < purgeThreshold || e.deadCount <= e.liveCount {
		return
	}
	out := e.queue[:0]
	for _, idx := range e.queue[e.head:] {
		if e.events[idx].state == slotDead {
			e.reclaim(idx)
		} else {
			out = append(out, idx)
		}
	}
	e.queue = out
	e.head = 0
	e.deadCount = 0
}

// cancelForever eagerly removes a cancelled Forever sentinel from the
// sentinel list (order-preserving): nothing pops sentinels, so lazy
// reclamation would leak them, and the list holds one or two per run.
func (e *Engine) cancelForever(idx int32) {
	for i, f := range e.forever {
		if f == idx {
			e.forever = append(e.forever[:i], e.forever[i+1:]...)
			e.reclaim(idx)
			return
		}
	}
	panic("sim: invariant violated: cancelled Forever event not in sentinel list")
}

// nextLive sorts the list if an append broke its order, then makes the
// earliest live finite event the list's head and returns its slot,
// reclaiming any dead events it passes over. It returns false when no
// finite events remain (Forever sentinels do not count: they never
// fire).
func (e *Engine) nextLive() (int32, bool) {
	if e.unsorted {
		e.sortTail()
		e.unsorted = false
	}
	for e.head < len(e.queue) {
		idx := e.queue[e.head]
		if e.events[idx].state == slotDead {
			e.head++
			e.deadCount--
			e.reclaim(idx)
			continue
		}
		e.compact()
		return idx, true
	}
	e.queue = e.queue[:0]
	e.head = 0
	return 0, false
}
