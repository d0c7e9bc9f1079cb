// Package sim is a deterministic discrete-event simulation kernel. It is the
// substrate on which the Pl@ntNet Identification Engine model
// (internal/plantnet) and the testbed network model run.
//
// The kernel is callback-based and single-threaded: events fire in
// (time, insertion) order, so a simulation is fully determined by its inputs
// and seed — a requirement for the reproducible experiments the paper's
// methodology mandates.
//
// # Calendar structure
//
// The event calendar is a ladder of tiers instead of one big binary heap:
//
//   - nowq: a FIFO of the events scheduled for the current instant (At(now),
//     Schedule(0), past or negative times clamped to now, Reschedule to
//     now). Appending and popping are O(1), with no heap sift.
//   - front: a small flat min-heap ordered by (time, seq) holding the later
//     events of the bucket the clock is currently in, so the per-event heap
//     work is O(log bucketSize), not O(log totalEvents).
//   - ring: ringSlots unsorted buckets of bucketW seconds each, covering the
//     near future (curB, curB+ringSlots). Insertion is an O(1) append; a
//     bucket is heapified into front only when the clock reaches it.
//   - over: an overflow min-heap for events beyond the ring horizon. Events
//     migrate ring-ward (at most once each) when the horizon advances past
//     them.
//
// The same-instant tier keeps (time, seq) order without comparing keys.
// Every calendar entry has time >= now, and each new entry takes the
// largest seq so far, so nowq holds its entries in seq order. A front entry
// at time == now was inserted before the clock reached now, so it sorts
// before every nowq entry; every nowq entry sorts before every entry at a
// later time. The pop rule is therefore: the front minimum if its time ==
// now, otherwise the nowq head. nowq drains before the clock moves forward;
// a Run that moves it back files nowq's entries in the timed tiers first.
//
// Event nodes live in an arena recycled through a generation-counted
// freelist, and Event handles are plain values (arena index + generation),
// so steady-state Schedule/Reschedule/Cancel/Step perform zero heap
// allocations. The heap tiers never hold cancelled tombstones; nowq marks a
// cancelled entry in place (idx -1) and skips it when it reaches the head.
// A Reschedule of a front event whose new time stays in the front bucket
// overwrites its slot and sifts once. Firing order is exactly (time, seq)
// in every tier, which keeps fixed-seed runs bit-identical to the old
// single-heap kernel (see calendar_equiv_test.go).
package sim

import "math"

const (
	// ringSlots is the number of near-future buckets (power of two).
	ringSlots = 256
	ringMask  = ringSlots - 1
	// bucketW is the bucket width in simulated seconds: sized so that at the
	// Pl@ntNet engine's event density (hundreds of events per simulated
	// second) a bucket holds on the order of ten events, keeping the front
	// heap tiny. Any value is semantically equivalent — order is always
	// (time, seq) — it only shifts work between tiers.
	bucketW    = 1.0 / 32
	invBucketW = 32.0
	// maxBucketable guards the float->int64 bucket conversion. Once the
	// clock must advance past this many buckets (~10^15 s of simulated
	// time), the engine degrades to a flat heap (frontEnd = +Inf), which is
	// still exactly correct — just unbucketed.
	maxBucketable = 1 << 50
)

// loc says which calendar tier an event node currently sits in.
type loc uint8

const (
	locFree loc = iota
	locNow
	locFront
	locRing
	locOver
)

// entry is a calendar slot: the sort key plus the arena index of its node.
type entry struct {
	time float64
	seq  int64
	idx  int32
}

func entryLess(a, b entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventNode is the arena-resident part of an event. gen is bumped every time
// the node is released, so stale Event handles (fired, cancelled, or
// recycled) are detected in O(1).
type eventNode struct {
	fn   func()
	gen  uint32
	loc  loc
	slot uint16 // ring slot index when loc == locRing
	pos  int32  // index within its tier's slice
}

// Engine is an event calendar with a simulation clock.
type Engine struct {
	now   float64
	seq   int64
	live  int   // scheduled, non-cancelled events (O(1) Pending)
	fired int64 // events fired since construction or Reset

	// nowq holds the events due at the current instant in seq order;
	// entries before nowHead have fired, and idx -1 marks a cancelled one.
	nowq    []entry
	nowHead int

	nodes []eventNode
	free  []int32

	curB     int64   // absolute bucket index the front heap belongs to
	frontEnd float64 // (curB+1)*bucketW: front admits t < frontEnd
	ringEnd  float64 // (curB+ringSlots)*bucketW: ring admits t < ringEnd

	front []entry            // min-heap by (time, seq)
	ring  [ringSlots][]entry // unsorted near-future buckets
	ringN int
	over  []entry // min-heap by (time, seq), t >= ringEnd at insert time
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		frontEnd: bucketW,
		ringEnd:  ringSlots * bucketW,
	}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events fired since the engine was built or
// last Reset: an exact, machine-independent measure of kernel work.
func (e *Engine) Fired() int64 { return e.fired }

// Event is a value handle to a scheduled callback; it can be cancelled or
// rescheduled. The zero Event is inert. Handles stay cheap to copy (no heap
// allocation per Schedule) and detect staleness through the node's
// generation counter: cancelling a fired, cancelled, or recycled event is a
// no-op.
type Event struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing, releasing its node immediately.
// Cancelling a fired or already cancelled event is a no-op.
//
//simlint:noalloc steady-state calendar path (PR 3 contract, sim/alloc_test.go)
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil {
		return
	}
	nd := &e.nodes[ev.idx]
	if nd.gen != ev.gen || nd.loc == locFree {
		return
	}
	e.removeEntry(ev.idx)
	e.release(ev.idx)
	e.live--
}

// Schedule runs fn after delay seconds of simulated time. A negative or NaN
// delay is treated as zero (fires at the current instant, after
// already-queued events for that instant).
//
//simlint:noalloc steady-state calendar path
func (e *Engine) Schedule(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute simulation time t. Times in the past and NaN are
// clamped to now (a NaN must not enter the calendar: it is unordered, so it
// would corrupt every tier's invariants). +Inf is a valid "never unless the
// horizon is infinite" time.
//
//simlint:noalloc steady-state calendar path
func (e *Engine) At(t float64, fn func()) Event {
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	idx := e.alloc(fn)
	e.seq++
	e.insert(entry{time: t, seq: e.seq, idx: idx})
	e.live++
	return Event{eng: e, idx: idx, gen: e.nodes[idx].gen}
}

// Reschedule moves a still-pending event to absolute time t (clamped to
// now), with the same (time, seq) tie semantics as cancelling it and
// scheduling afresh — but in place, reusing the event's node. It returns
// false when ev has already fired or been cancelled; the caller should then
// Schedule a new event. High-frequency reschedulers (SharedResource
// recomputes its next completion on every job arrival) use this to keep the
// calendar free of dead entries.
//
//simlint:noalloc steady-state calendar path
func (e *Engine) Reschedule(ev Event, t float64) bool {
	if ev.eng != e || e == nil {
		return false
	}
	nd := &e.nodes[ev.idx]
	if nd.gen != ev.gen || nd.loc == locFree {
		return false
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	ent := entry{time: t, seq: e.seq, idx: ev.idx}
	if nd.loc == locFront && t < e.frontEnd && t != e.now {
		// The node stays in the front bucket: overwrite its slot with the
		// new key and restore the heap order from there.
		e.front[nd.pos] = ent
		e.heapFix(e.front, int(nd.pos), locFront)
		return true
	}
	e.removeEntry(ev.idx)
	e.insert(ent)
	return true
}

// Step fires the next event. It returns false when the calendar is empty.
//
//simlint:noalloc steady-state calendar path
func (e *Engine) Step() bool {
	if e.nowHead < len(e.nowq) {
		if idx := e.popNow(); idx >= 0 {
			e.fire(idx)
			return true
		}
	}
	if len(e.front) == 0 && !e.advance() {
		return false
	}
	ent := e.heapPopMin(&e.front, locFront)
	e.now = ent.time
	e.fire(ent.idx)
	return true
}

// Run fires events until the calendar is empty or the clock would pass
// until. The clock is left at min(until, last event time); events scheduled
// beyond until remain queued.
//
//simlint:noalloc steady-state calendar path
func (e *Engine) Run(until float64) {
	if until < e.now && e.nowHead < len(e.nowq) {
		// The clock is about to move back past the events due now; file
		// them in the timed tiers so nowq only ever holds time == now.
		e.spillNow(until)
	}
	for {
		if e.nowHead < len(e.nowq) {
			if idx := e.popNow(); idx >= 0 {
				e.fire(idx)
				continue
			}
		}
		if len(e.front) == 0 {
			if e.ringN == 0 && (len(e.over) == 0 || e.over[0].time > until) {
				// Nothing within the horizon; don't rebase the calendar for
				// events we are not going to fire.
				if len(e.over) > 0 {
					e.now = until
					return
				}
				break
			}
			e.advance()
		}
		if e.front[0].time > until {
			e.now = until
			return
		}
		// Inline rather than e.fire: the compiler does not inline fire,
		// and this pop serves every event after the current instant.
		ent := e.heapPopMin(&e.front, locFront)
		fn := e.nodes[ent.idx].fn
		e.release(ent.idx)
		e.live--
		e.fired++
		e.now = ent.time
		fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of scheduled (non-cancelled) events. It is
// O(1): the count is maintained incrementally on Schedule, Cancel, and fire.
func (e *Engine) Pending() int { return e.live }

// Reset returns the engine to the fresh-constructed state — clock at zero,
// empty calendar — while keeping the arena, freelist, and tier backing
// arrays, so a pooled engine's next run schedules without re-growing
// anything. Every outstanding Event handle (and any resource built on the
// engine, e.g. SharedResource/Pool/Link) becomes invalid and must be reset
// or dropped by its owner; plantnet's Runner is the canonical caller.
//
//simlint:noalloc pooled-reuse path (PR 5 contract): reset must not re-grow
func (e *Engine) Reset() {
	e.now, e.seq, e.live, e.fired = 0, 0, 0, 0
	e.nowq, e.nowHead = e.nowq[:0], 0
	for i := range e.nodes {
		e.nodes[i].fn = nil
	}
	e.nodes = e.nodes[:0]
	e.free = e.free[:0]
	e.curB = 0
	e.frontEnd = bucketW
	e.ringEnd = ringSlots * bucketW
	e.front = e.front[:0]
	for i := range e.ring {
		e.ring[i] = e.ring[i][:0]
	}
	e.ringN = 0
	e.over = e.over[:0]
}

// --- arena -----------------------------------------------------------------

//simlint:noalloc arena pop; growth is an amortized append into kept capacity
func (e *Engine) alloc(fn func()) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.nodes = append(e.nodes, eventNode{})
		idx = int32(len(e.nodes) - 1)
	}
	e.nodes[idx].fn = fn
	return idx
}

// fire releases the node of a popped entry and runs its callback at the
// current clock.
//
//simlint:noalloc
func (e *Engine) fire(idx int32) {
	fn := e.nodes[idx].fn
	e.release(idx)
	e.live--
	e.fired++
	fn()
}

//simlint:noalloc
func (e *Engine) release(idx int32) {
	nd := &e.nodes[idx]
	nd.fn = nil
	nd.gen++
	nd.loc = locFree
	e.free = append(e.free, idx)
}

// --- calendar tiers --------------------------------------------------------

// insert files an entry into the tier its time belongs to.
//
//simlint:noalloc
func (e *Engine) insert(ent entry) {
	switch {
	case ent.time == e.now:
		nd := &e.nodes[ent.idx]
		nd.loc, nd.pos = locNow, int32(len(e.nowq))
		e.nowq = append(e.nowq, ent)
	case ent.time < e.frontEnd:
		e.heapPush(&e.front, locFront, ent)
	case ent.time < e.ringEnd:
		e.ringPut(ent)
	default:
		e.heapPush(&e.over, locOver, ent)
	}
}

//simlint:noalloc
func (e *Engine) ringPut(ent entry) {
	s := int(int64(ent.time*invBucketW) & ringMask)
	nd := &e.nodes[ent.idx]
	nd.loc, nd.slot, nd.pos = locRing, uint16(s), int32(len(e.ring[s]))
	e.ring[s] = append(e.ring[s], ent)
	e.ringN++
}

// removeEntry detaches a live entry from whatever tier holds it.
//
//simlint:noalloc
func (e *Engine) removeEntry(idx int32) {
	nd := &e.nodes[idx]
	switch nd.loc {
	case locNow:
		e.nowq[nd.pos].idx = -1
	case locFront:
		e.heapRemove(&e.front, locFront, int(nd.pos))
	case locOver:
		e.heapRemove(&e.over, locOver, int(nd.pos))
	case locRing:
		s := int(nd.slot)
		sl := e.ring[s]
		p := int(nd.pos)
		last := len(sl) - 1
		if p != last {
			sl[p] = sl[last]
			e.nodes[sl[p].idx].pos = int32(p)
		}
		e.ring[s] = sl[:last]
		e.ringN--
	}
}

// popNow returns the arena index of the next event to fire when that is the
// nowq head, or -1 when the front minimum fires first (its time == now) or
// only cancelled entries remain. The caller has checked nowHead < len(nowq).
//
//simlint:noalloc
func (e *Engine) popNow() int32 {
	if len(e.front) > 0 && e.front[0].time == e.now {
		return -1
	}
	for e.nowHead < len(e.nowq) {
		idx := e.nowq[e.nowHead].idx
		e.nowHead++
		if idx >= 0 {
			if e.nowHead == len(e.nowq) {
				e.nowq, e.nowHead = e.nowq[:0], 0
			}
			return idx
		}
	}
	e.nowq, e.nowHead = e.nowq[:0], 0
	return -1
}

// spillNow moves the clock back to until < now and files the live nowq
// entries in the timed tiers, in seq order. When no entry is live it leaves
// the clock to the rest of Run, which moves it back only if some other
// event is pending.
//
//simlint:noalloc
func (e *Engine) spillNow(until float64) {
	q := e.nowq[e.nowHead:]
	e.nowq, e.nowHead = e.nowq[:0], 0
	for _, ent := range q {
		if ent.idx >= 0 {
			// Every entry now lies after the clock, so none re-enters nowq
			// and overwrites q.
			e.now = until
			e.insert(ent)
		}
	}
}

// advance moves the calendar to the next nonempty bucket, loading it into
// the front heap. It returns false when no events remain anywhere. The front
// heap must be empty on entry.
//
//simlint:noalloc
func (e *Engine) advance() bool {
	if e.ringN > 0 {
		// The ring invariant guarantees a nonempty slot within ringSlots-1
		// steps, and that every ring event precedes every overflow event.
		b := e.curB + 1
		for i := 0; i < ringSlots; i++ {
			if len(e.ring[b&ringMask]) > 0 {
				e.rebase(b)
				return true
			}
			b++
		}
		panic("sim: ring count out of sync with slots")
	}
	if len(e.over) == 0 {
		return false
	}
	if m := e.over[0].time; m*invBucketW < maxBucketable {
		e.rebase(int64(m * invBucketW))
		return true
	}
	// Beyond bucketable time: degrade to a flat heap, permanently. Still
	// exact (time, seq) order — just no ring tier from here on.
	e.frontEnd = math.Inf(1)
	e.ringEnd = math.Inf(1)
	e.front = append(e.front[:0], e.over...)
	e.over = e.over[:0]
	e.heapifyFront()
	return true
}

// rebase advances the calendar base to bucket b: loads b's ring slot into
// the front heap and migrates newly in-horizon overflow events into the
// ring (each event migrates at most once).
//
//simlint:noalloc
func (e *Engine) rebase(b int64) {
	e.curB = b
	e.frontEnd = float64(b+1) * bucketW
	e.ringEnd = float64(b+ringSlots) * bucketW
	s := int(b & ringMask)
	if sl := e.ring[s]; len(sl) > 0 {
		e.ringN -= len(sl)
		e.front = append(e.front[:0], sl...)
		e.ring[s] = sl[:0]
		e.heapifyFront()
	}
	for len(e.over) > 0 && e.over[0].time < e.ringEnd {
		ent := e.heapPopMin(&e.over, locOver)
		if ent.time < e.frontEnd {
			e.heapPush(&e.front, locFront, ent)
		} else {
			e.ringPut(ent)
		}
	}
}

// --- flat (time, seq) min-heaps with arena position tracking ---------------

//simlint:noalloc
func (e *Engine) heapifyFront() {
	h := e.front
	for i, ent := range h {
		nd := &e.nodes[ent.idx]
		nd.loc, nd.pos = locFront, int32(i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		e.siftDown(h, i, locFront)
	}
}

//simlint:noalloc
func (e *Engine) siftUp(h []entry, i int, l loc) {
	ent := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		e.nodes[h[i].idx].pos = int32(i)
		i = p
	}
	h[i] = ent
	nd := &e.nodes[ent.idx]
	nd.loc, nd.pos = l, int32(i)
}

//simlint:noalloc
func (e *Engine) siftDown(h []entry, i int, l loc) {
	n := len(h)
	ent := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && entryLess(h[r], h[c]) {
			c = r
		}
		if !entryLess(h[c], ent) {
			break
		}
		h[i] = h[c]
		e.nodes[h[i].idx].pos = int32(i)
		i = c
	}
	h[i] = ent
	nd := &e.nodes[ent.idx]
	nd.loc, nd.pos = l, int32(i)
}

//simlint:noalloc
func (e *Engine) heapPush(h *[]entry, l loc, ent entry) {
	*h = append(*h, ent)
	e.siftUp(*h, len(*h)-1, l)
}

//simlint:noalloc
func (e *Engine) heapPopMin(h *[]entry, l loc) entry {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	if last > 0 {
		e.siftDown(*h, 0, l)
	}
	return min
}

//simlint:noalloc
func (e *Engine) heapRemove(h *[]entry, l loc, i int) {
	s := *h
	last := len(s) - 1
	s[i] = s[last]
	*h = s[:last]
	if i < last {
		e.heapFix(s[:last], i, l)
	}
}

// heapFix restores the heap order after the entry at i changed its key.
//
//simlint:noalloc
func (e *Engine) heapFix(h []entry, i int, l loc) {
	if i > 0 && entryLess(h[i], h[(i-1)/2]) {
		e.siftUp(h, i, l)
	} else {
		e.siftDown(h, i, l)
	}
}
