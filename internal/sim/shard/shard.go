// Package shard runs several private discrete-event engines in parallel
// under Chandy–Misra-style conservative synchronization. Virtual time is cut
// into fixed-width windows no wider than the minimum cross-shard lookahead;
// within a window every node advances its own engine independently (no locks,
// no shared state), and cross-node events travel as value messages that the
// coordinator routes at the window barrier into per-destination pending
// buffers kept in (time, srcNode, seq) order. Because a message emitted
// inside window k can only be due strictly after window k ends (the
// lookahead bound), the barrier order — and therefore every engine's event
// order — is independent of how many OS workers execute the windows, which
// is what makes fixed-seed sharded runs bit-identical at any worker count.
//
// One window of the parallel path has three phases:
//
//   - Barrier. The coordinator goroutine is worker 0 and spawns the other
//     workers once per Run. It publishes a window by bumping an atomic
//     epoch and learns of its completion from an atomic finished-count.
//     A waiting side spins briefly (yielding with runtime.Gosched), then
//     parks on a condition variable through a handshake that cannot lose a
//     wakeup, so an oversubscribed process parks instead of burning CPU.
//   - Claim. Workers pull nodes from a shared atomic cursor over a claim
//     order sorted heaviest-first by the events each node fired in the
//     previous window, so the heaviest node starts first instead of running
//     alone at the end of the window. Claim order only decides which worker
//     runs a node, never the output.
//   - Route. On the coordinator, each destination's new messages are
//     sorted as small (At, Src, Seq, slot) keys and merged into its pending
//     buffer from the back, so every message is copied once and the pending
//     prefix older than all new keys never moves.
//
// This package deliberately lives OUTSIDE lint.KernelPackages: the
// single-threaded kernel in internal/sim stays free of runtime
// synchronization (statically enforced by simlint's kernelsync check), and
// every goroutine, lock and atomic in the sharded discipline is confined
// to this one blessed coordinator with per-site //simlint:ordered
// attestations.
package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Msg is the cross-node event envelope: a fixed-size value so mailboxes are
// flat slices the coordinator can retain and reuse without per-message
// allocation. At is the virtual delivery time; Src/Seq are stamped by the
// Outbox and, with At, form the total delivery order (At, Src, Seq). The
// remaining fields are an application-defined payload (opcode, correlation
// tokens, scalars, and a small vector — sized for plantnet's per-request
// task breakdown).
type Msg struct {
	At  float64
	Src int32
	Dst int32
	Seq int64

	Kind   int32
	Ref    int32
	Token  int64
	Token2 int64
	F0, F1 float64
	Vec    [9]float64
}

// Node is one shard: it owns a private engine and advances it in windows.
// Advance must run the node's virtual clock up to and including until, after
// first applying every message in inbox (already sorted in delivery order;
// each At lies in the current window). Messages to other nodes are emitted
// via out. Advance returns the number of events it fired in the window,
// which the coordinator uses only to order the next window's claims.
// Advance is called from coordinator workers: it must touch only
// node-private state — determinism and the race detector both depend on it.
type Node interface {
	Advance(until float64, inbox []Msg, out *Outbox) int64
}

// Outbox collects one node's cross-shard emissions for the current window,
// stamping each message with the source node and a per-destination sequence
// number that is monotonic over the whole run — the (At, Src, Seq) delivery
// order needs no other tiebreak. Each node writes only its own Outbox, so
// emission is synchronization-free.
type Outbox struct {
	src  int32
	msgs []Msg
	seq  []int64 // per-destination emission counters
}

// Send emits m to node dst. m.At must already be set to the virtual delivery
// time; Src/Dst/Seq are stamped here.
//
//simlint:noalloc steady-state emission appends into buffers retained across windows
func (o *Outbox) Send(dst int32, m Msg) {
	m.Src = o.src
	m.Dst = dst
	m.Seq = o.seq[dst]
	o.seq[dst]++
	o.msgs = append(o.msgs, m)
}

// routeKey is a 24-byte sort handle for one routed message: its delivery
// order (At, Src, Seq) and its slot in the source's outbox.
type routeKey struct {
	At   float64
	Seq  int64
	Src  int32
	Slot int32
}

// less is the delivery order: (At, Src, Seq).
func (k *routeKey) less(o *routeKey) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	return k.Seq < o.Seq
}

// before reports whether the keyed message precedes m in delivery order.
func (k *routeKey) before(m *Msg) bool {
	return k.less(&routeKey{At: m.At, Seq: m.Seq, Src: m.Src})
}

// spinBudget is how many runtime.Gosched yields a waiting worker spends
// polling before it parks: about 100 µs at the ~200 ns a yield costs on an
// idle 2-vCPU host, longer than a window's serial route phase, so a worker
// of a busy run never sleeps, while one of an oversubscribed process gives
// its CPU up after a fraction of a window.
const spinBudget = 512

// Coordinator owns the window loop: it cuts [0, until] into windows of the
// configured width, hands each node its due mailbox prefix, runs every
// node's Advance (inline, or on workers that the coordinator joins), then
// routes the emitted messages into per-destination pending buffers kept in
// delivery order. All mutable state is either node-private (engines,
// outboxes, per-node event counts) or touched only between barriers on the
// coordinator goroutine.
type Coordinator struct {
	nodes   []Node
	window  float64
	outs    []Outbox
	pending [][]Msg      // per destination, sorted by (At, Src, Seq)
	inboxes [][]Msg      // per destination, the due prefix copied out per window
	keys    [][]routeKey // per destination, the window's emissions
	fired   []int64      // per node, events fired in its last window
	order   []int32      // claim order: heaviest previous window first
	windows int64
	routed  int64

	// Barrier state of the parallel path. end, stop and order are written
	// by the coordinator before it bumps epoch; fired is written by a
	// worker before it bumps finished.
	end      float64
	stop     bool
	helpers  int32
	epoch    atomic.Uint64
	cursor   atomic.Int64
	finished atomic.Int32
	parked   atomic.Int32 // helpers parked on wake
	waiting  atomic.Bool  // the coordinator is parked on done
	mu       sync.Mutex
	wake     sync.Cond // helpers: a new epoch was published
	done     sync.Cond // coordinator: every helper finished the window
}

// NewCoordinator builds a coordinator over nodes with the given window
// width, which must be positive and no larger than the minimum cross-node
// lookahead (the caller derives it from propagation delay; the Run loop
// panics on any message that violates it).
func NewCoordinator(nodes []Node, window float64) *Coordinator {
	if window <= 0 {
		panic(fmt.Sprintf("shard: window width must be positive, got %v", window))
	}
	n := len(nodes)
	c := &Coordinator{
		nodes:   nodes,
		window:  window,
		outs:    make([]Outbox, n),
		pending: make([][]Msg, n),
		inboxes: make([][]Msg, n),
		keys:    make([][]routeKey, n),
		fired:   make([]int64, n),
		order:   make([]int32, n),
	}
	c.wake.L = &c.mu
	c.done.L = &c.mu
	for i := range c.outs {
		c.outs[i].src = int32(i)
		c.outs[i].seq = make([]int64, n)
		c.order[i] = int32(i)
	}
	return c
}

// Reset prepares a pooled coordinator for a fresh run over the same nodes:
// emission counters, the window and message counters and the claim order
// return to their initial state and the mailbox buffers are emptied, but
// their backing arrays are retained so a reused coordinator's steady state
// allocates nothing.
func (c *Coordinator) Reset(window float64) {
	if window <= 0 {
		panic(fmt.Sprintf("shard: window width must be positive, got %v", window))
	}
	c.window = window
	c.windows, c.routed = 0, 0
	for i := range c.outs {
		c.outs[i].msgs = c.outs[i].msgs[:0]
		for j := range c.outs[i].seq {
			c.outs[i].seq[j] = 0
		}
		c.pending[i] = c.pending[i][:0]
		c.inboxes[i] = c.inboxes[i][:0]
		c.keys[i] = c.keys[i][:0]
		c.fired[i] = 0
		c.order[i] = int32(i)
	}
}

// Windows reports how many windows the coordinator has run since it was
// built or last Reset.
func (c *Coordinator) Windows() int64 { return c.windows }

// Routed reports how many cross-node messages the coordinator has routed
// since it was built or last Reset.
func (c *Coordinator) Routed() int64 { return c.routed }

// Run advances every node to virtual time until (inclusive), window by
// window. workers bounds the OS-level parallelism; it is capped at the node
// count, at GOMAXPROCS and at the CPU count (a worker beyond the CPUs only
// time-slices with the others, and a spinning one takes CPU from a working
// one), and a cap of 1 runs the window loop inline on the calling goroutine
// (bit-identical to any other worker count — the tests enforce it). Higher
// values run the windows on the calling goroutine plus workers-1 helpers
// spawned for the duration of the call.
// Which worker advances which node can never affect output: nodes share
// nothing, and routing happens on the coordinator goroutine between
// barriers in fixed node order. The parallel path lives in runParallel so
// the inline path stays allocation-free (the WaitGroup the helpers share
// would otherwise escape to the heap here).
//
//simlint:noalloc steady-state window loop: delivery, advance and routing reuse buffers retained across windows
func (c *Coordinator) Run(until float64, workers int) {
	workers = min(workers, len(c.nodes), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if workers > 1 {
		c.runParallel(until, workers) //simlint:allow noallocclosure runParallel is the explicitly-parallel cold path; its helper spawn is per-Run, not per-window
		return
	}
	for k := int64(1); ; k++ {
		end := c.window * float64(k)
		if end > until {
			end = until
		}
		c.deliver(end)
		for i := range c.nodes {
			c.fired[i] = c.nodes[i].Advance(end, c.inboxes[i], &c.outs[i]) //simlint:allow noallocclosure Advance is an interface call; each node's own steady-state paths carry their own noalloc contracts (plantnet shSlot pool, sim freelists)
		}
		c.route(end)
		if end >= until {
			return
		}
	}
}

// runParallel is Run's multi-worker variant: the same window loop with the
// Advance phase shared between the calling goroutine (worker 0) and
// workers-1 helpers. The atomics form the barrier: the coordinator writes
// the window's inboxes, end and claim order before it bumps epoch, and a
// helper reads them only after it observes the bump; a helper writes its
// nodes' outboxes and event counts before it bumps finished, and the
// coordinator routes only after finished counts every helper. So
// node-private state is handed off with a happens-before edge in each
// direction, and the race detector observes the discipline, not just the
// schedule. The final epoch carries stop, and the helpers are joined before
// Run returns, also when a node or route panics, so no helper outlives the
// call.
//
//simlint:ordered worker assignment is load-balancing only: nodes touch disjoint state and the coordinator routes outboxes in fixed node order after the barrier, so output is independent of worker interleaving
func (c *Coordinator) runParallel(until float64, workers int) {
	c.helpers = int32(workers - 1)
	c.stop = false
	seen := c.epoch.Load()
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.help(seen, &wg)
	}
	defer func() {
		c.stop = true
		c.publish()
		wg.Wait()
	}()
	for k := int64(1); ; k++ {
		end := c.window * float64(k)
		if end > until {
			end = until
		}
		c.deliver(end)
		c.end = end
		c.cursor.Store(0)
		c.finished.Store(0)
		c.publish()
		c.claim(end)
		c.awaitHelpers()
		c.route(end)
		c.reorder()
		if end >= until {
			return
		}
	}
}

// help is a helper worker's loop: wait for each published window, claim
// nodes until the cursor runs out, report completion.
func (c *Coordinator) help(seen uint64, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		seen = c.awaitEpoch(seen)
		if c.stop {
			return
		}
		c.claim(c.end)
		if c.finished.Add(1) == c.helpers && c.waiting.Load() {
			c.mu.Lock()
			c.done.Signal()
			c.mu.Unlock()
		}
	}
}

// claim advances nodes in claim order until the shared cursor runs out.
func (c *Coordinator) claim(end float64) {
	n := int64(len(c.order))
	for {
		i := c.cursor.Add(1) - 1
		if i >= n {
			return
		}
		d := c.order[i]
		c.fired[d] = c.nodes[d].Advance(end, c.inboxes[d], &c.outs[d])
	}
}

// publish opens the next epoch and wakes any parked helper. A helper parks
// only after registering in parked and re-checking epoch under mu, and
// publish reads parked only after bumping epoch, so (with Go's sequentially
// consistent atomics) either the helper sees the new epoch or publish sees
// the helper and broadcasts under mu after the helper is waiting.
func (c *Coordinator) publish() {
	c.epoch.Add(1)
	if c.parked.Load() > 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
}

// awaitEpoch blocks a helper until the epoch differs from seen and returns
// the new epoch: spin, then park.
func (c *Coordinator) awaitEpoch(seen uint64) uint64 {
	for i := 0; i < spinBudget; i++ {
		if e := c.epoch.Load(); e != seen {
			return e
		}
		runtime.Gosched()
	}
	c.mu.Lock()
	c.parked.Add(1)
	e := c.epoch.Load()
	for e == seen {
		c.wake.Wait()
		e = c.epoch.Load()
	}
	c.parked.Add(-1)
	c.mu.Unlock()
	return e
}

// awaitHelpers blocks the coordinator until every helper has finished the
// current window: spin, then park. The handshake mirrors publish/awaitEpoch
// with the roles swapped: waiting is set under mu before finished is
// re-checked, and the last helper reads waiting after bumping finished.
func (c *Coordinator) awaitHelpers() {
	for i := 0; i < spinBudget; i++ {
		if c.finished.Load() == c.helpers {
			return
		}
		runtime.Gosched()
	}
	c.mu.Lock()
	c.waiting.Store(true)
	for c.finished.Load() != c.helpers {
		c.done.Wait()
	}
	c.waiting.Store(false)
	c.mu.Unlock()
}

// reorder re-sorts the claim order heaviest-first by the events each node
// fired in the window just run, ties by node index. The insertion sort
// keeps it allocation-free; over ShardedScale's 65 nodes, whose per-window
// counts reshuffle, it costs a few microseconds a window.
//
//simlint:noalloc steady-state claim ordering sorts a slice retained across windows
func (c *Coordinator) reorder() {
	o := c.order
	for i := 1; i < len(o); i++ {
		x := o[i]
		j := i
		for ; j > 0 && c.heavier(x, o[j-1]); j-- {
			o[j] = o[j-1]
		}
		o[j] = x
	}
}

// heavier reports whether node a claims before node b.
func (c *Coordinator) heavier(a, b int32) bool {
	if c.fired[a] != c.fired[b] {
		return c.fired[a] > c.fired[b]
	}
	return a < b
}

// deliver copies each destination's due mailbox prefix (At <= end) into its
// inbox buffer and compacts the remainder. pending is sorted, so the prefix
// is contiguous. It also counts the window.
//
//simlint:noalloc steady-state delivery reuses inbox buffers retained across windows
func (c *Coordinator) deliver(end float64) {
	c.windows++
	for d := range c.pending {
		p := c.pending[d]
		due := 0
		for due < len(p) && p[due].At <= end {
			due++
		}
		c.inboxes[d] = append(c.inboxes[d][:0], p[:due]...)
		c.pending[d] = p[:copy(p, p[due:])]
	}
}

// route moves every node's window emissions into the destination pending
// buffers, enforcing the lookahead bound (a message due within the window
// just executed would have to travel backwards in virtual time at its
// destination — a programming error, not a recoverable condition). Each
// destination's keys are collected in fixed node order, sorted, and merged
// into its pending buffer.
//
//simlint:noalloc steady-state routing reuses pending and key buffers retained across windows
func (c *Coordinator) route(end float64) {
	for i := range c.outs {
		msgs := c.outs[i].msgs
		for j := range msgs {
			m := &msgs[j]
			if m.At <= end {
				lookaheadPanic(i, m.At, end, c.window) //simlint:allow noallocclosure fatal-path formatting; the process dies here
			}
			c.keys[m.Dst] = append(c.keys[m.Dst], routeKey{At: m.At, Seq: m.Seq, Src: m.Src, Slot: int32(j)})
		}
		c.routed += int64(len(msgs))
	}
	for d, k := range c.keys {
		if len(k) == 0 {
			continue
		}
		sortKeys(k)
		c.pending[d] = c.merge(c.pending[d], k)
		c.keys[d] = k[:0]
	}
	for i := range c.outs {
		c.outs[i].msgs = c.outs[i].msgs[:0]
	}
}

// sortKeys sorts one destination's keys in delivery order. Each source
// emits nearly in At order, so insertion sort is close to linear; it moves
// 24-byte keys, never messages, and is hand-rolled to keep routing
// allocation-free (sort.Slice's closure would escape).
//
//simlint:noalloc steady-state routing sorts key buffers in place
func sortKeys(k []routeKey) {
	for i := 1; i < len(k); i++ {
		x := k[i]
		j := i
		for ; j > 0 && x.less(&k[j-1]); j-- {
			k[j] = k[j-1]
		}
		k[j] = x
	}
}

// merge merges the sorted keys' messages into the sorted pending buffer p
// and returns it. It grows p by len(k) and fills it from the back, so each
// pending message that a new key precedes moves once, the prefix older
// than every new key stays put, and each new message is copied once from
// its outbox. On an (At, Src, Seq) tie the pending message stays first.
//
//simlint:noalloc steady-state routing grows pending buffers retained across windows
func (c *Coordinator) merge(p []Msg, k []routeKey) []Msg {
	i := len(p) - 1
	n := len(p) + len(k)
	if n > cap(p) {
		p = growPending(p, n) //simlint:allow noallocclosure buffer growth is the sanctioned cold path; a warm pending buffer already has the capacity
	}
	p = p[:n]
	for w, j := len(p)-1, len(k)-1; j >= 0; w-- {
		if i >= 0 && k[j].before(&p[i]) {
			p[w] = p[i]
			i--
		} else {
			p[w] = c.outs[k[j].Src].msgs[k[j].Slot]
			j--
		}
	}
	return p
}

// growPending returns p with capacity for n messages. Kept out of line so
// merge's steady state stays provably allocation-free.
//
//go:noinline
func growPending(p []Msg, n int) []Msg {
	return slices.Grow(p, n-len(p))
}

// lookaheadPanic reports a lookahead violation. Kept out of line so route's
// steady state stays provably allocation-free (the Sprintf arguments would
// otherwise escape at every call site).
//
//go:noinline
func lookaheadPanic(node int, at, end, window float64) {
	panic(fmt.Sprintf(
		"shard: lookahead violation: node %d emitted a message due at %v inside its own window ending %v (window width %v)",
		node, at, end, window))
}
