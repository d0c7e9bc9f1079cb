package shard

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"e2clab/internal/sim"
)

// echoNode is a synthetic shard: a private sim.Engine that, on each applied
// message, records the delivery order and (for a few generations) emits a
// reply to a deterministically chosen peer one lookahead later. It exercises
// exactly the discipline plantnet's domain/core nodes use, with an
// application log the tests can compare bit-for-bit across worker counts.
type echoNode struct {
	id    int32
	n     int32
	eng   *sim.Engine
	out   *Outbox
	log   []string
	emits int
}

func newEchoNode(id, n int32) *echoNode {
	return &echoNode{id: id, n: n, eng: sim.NewEngine()}
}

const lookahead = 0.5

func (e *echoNode) Advance(until float64, inbox []Msg, out *Outbox) int64 {
	e.out = out
	fired := e.eng.Fired()
	for i := range inbox {
		m := inbox[i] // copy: schedule captures the loop-local value
		e.eng.At(m.At, func() {
			e.log = append(e.log, fmt.Sprintf("t=%.3f src=%d seq=%d kind=%d", e.eng.Now(), m.Src, m.Seq, m.Kind))
			if m.Kind > 0 {
				dst := (m.Src + m.Ref) % e.n
				e.out.Send(dst, Msg{At: e.eng.Now() + lookahead, Kind: m.Kind - 1, Ref: m.Ref})
				e.emits++
			}
		})
	}
	e.eng.Run(until)
	return e.eng.Fired() - fired
}

// seedRound emits the initial message wave before the first window, the way
// plantnet seeds arrivals: scheduled on the engines, delivered via mailboxes.
func seed(nodes []*echoNode, c *Coordinator) {
	for _, nd := range nodes {
		// Each node starts three generations-of-8 cascades to varied peers.
		for k := int32(1); k <= 3; k++ {
			c.pending[(nd.id+k)%nd.n] = append(c.pending[(nd.id+k)%nd.n],
				Msg{At: float64(k) * 0.6, Src: nd.id, Dst: (nd.id + k) % nd.n, Seq: int64(k), Kind: 8, Ref: k})
		}
	}
	for i := range c.pending {
		p := c.pending[i]
		for j := 1; j < len(p); j++ {
			for k := j; k > 0 && p[k].less(&p[k-1]); k-- {
				p[k], p[k-1] = p[k-1], p[k]
			}
		}
	}
}

func runEcho(t *testing.T, nNodes, workers int) []string {
	t.Helper()
	nodes := make([]*echoNode, nNodes)
	ifaces := make([]Node, nNodes)
	for i := range nodes {
		nodes[i] = newEchoNode(int32(i), int32(nNodes))
		ifaces[i] = nodes[i]
	}
	c := NewCoordinator(ifaces, lookahead)
	seed(nodes, c)
	c.Run(40, workers)
	var all []string
	for _, nd := range nodes {
		all = append(all, fmt.Sprintf("-- node %d --", nd.id))
		all = append(all, nd.log...)
	}
	return all
}

// TestShardWorkerCountInvariance is the core determinism contract: the full
// per-node application logs must be byte-identical whether windows run
// inline or on 2, 4, or 8 workers.
func TestShardWorkerCountInvariance(t *testing.T) {
	ref := runEcho(t, 7, 1)
	if len(ref) < 7+8 {
		t.Fatalf("reference run produced implausibly few events: %d lines", len(ref))
	}
	for _, w := range []int{2, 4, 8} {
		got := runEcho(t, 7, w)
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Errorf("workers=%d diverged from inline run", w)
		}
	}
}

// TestShardDeliveryOrder checks the (At, Src, Seq) mailbox discipline: ties
// in virtual time are broken by source node, then emission sequence.
func TestShardDeliveryOrder(t *testing.T) {
	nd := newEchoNode(0, 2)
	c := NewCoordinator([]Node{nd, newEchoNode(1, 2)}, lookahead)
	// Same delivery instant from both a peer and two emissions of one src.
	c.pending[0] = []Msg{
		{At: 0.3, Src: 1, Seq: 0, Kind: 0},
		{At: 0.3, Src: 1, Seq: 1, Kind: 0},
		{At: 0.3, Src: 0, Seq: 5, Kind: 0},
		{At: 0.1, Src: 1, Seq: 2, Kind: 0},
	}
	p := c.pending[0]
	for j := 1; j < len(p); j++ {
		for k := j; k > 0 && p[k].less(&p[k-1]); k-- {
			p[k], p[k-1] = p[k-1], p[k]
		}
	}
	c.Run(1, 1)
	want := []string{
		"t=0.100 src=1 seq=2 kind=0",
		"t=0.300 src=0 seq=5 kind=0",
		"t=0.300 src=1 seq=0 kind=0",
		"t=0.300 src=1 seq=1 kind=0",
	}
	if strings.Join(nd.log, "\n") != strings.Join(want, "\n") {
		t.Errorf("delivery order:\n got %v\nwant %v", nd.log, want)
	}
}

// farNode emits a message due several windows ahead; the pending buffer must
// hold it until its window and not deliver early or late.
type farNode struct {
	eng  *sim.Engine
	sent bool
	got  []float64
}

func (f *farNode) Advance(until float64, inbox []Msg, out *Outbox) int64 {
	for i := range inbox {
		f.got = append(f.got, inbox[i].At)
	}
	if !f.sent {
		f.sent = true
		out.Send(1, Msg{At: 3.25}) // 6.5 windows ahead at width 0.5
	}
	f.eng.Run(until)
	return int64(len(inbox))
}

func TestShardPendingAcrossWindows(t *testing.T) {
	a := &farNode{eng: sim.NewEngine()}
	b := &farNode{eng: sim.NewEngine(), sent: true}
	c := NewCoordinator([]Node{a, b}, 0.5)
	c.Run(10, 1)
	if len(b.got) != 1 || b.got[0] != 3.25 {
		t.Fatalf("far message delivery: got %v, want [3.25]", b.got)
	}
}

type badNode struct{ eng *sim.Engine }

func (bn *badNode) Advance(until float64, inbox []Msg, out *Outbox) int64 {
	out.Send(0, Msg{At: until}) // due inside our own window: violates lookahead
	bn.eng.Run(until)
	return 1
}

// TestShardPanicJoinsHelpers: a lookahead panic on the parallel path still
// stops and joins the helpers, so a caller that recovers leaks none.
func TestShardPanicJoinsHelpers(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("expected lookahead-violation panic")
			}
		}()
		c := NewCoordinator([]Node{&badNode{eng: sim.NewEngine()}, &badNode{eng: sim.NewEngine()}}, 0.5)
		c.Run(1, 2)
	}()
	// A joined helper has called Done but may not have exited yet.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the run, %d after; a helper outlived its Run", before, after)
	}
}

func TestShardLookaheadViolationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c := NewCoordinator([]Node{&badNode{eng: sim.NewEngine()}}, 0.5)
	c.Run(1, 1)
}

// countNode ping-pongs a fixed population of messages forever — a warm
// steady state for the allocation gate.
type countNode struct {
	id  int32
	eng *sim.Engine
}

func (cn *countNode) Advance(until float64, inbox []Msg, out *Outbox) int64 {
	for i := range inbox {
		out.Send(1-cn.id, Msg{At: inbox[i].At + 0.75})
	}
	cn.eng.Run(until)
	return int64(len(inbox))
}

// TestZeroAllocShardWindows proves the steady-state window loop — delivery,
// advance, routing, pending insertion — allocates nothing once the mailbox
// buffers are warm. Goroutine spawn costs are per-Run, not per-window, so
// the gate drives the inline path and separately bounds the parallel path's
// per-Run overhead as window-count-independent.
func TestZeroAllocShardWindows(t *testing.T) {
	a := &countNode{id: 0, eng: sim.NewEngine()}
	b := &countNode{id: 1, eng: sim.NewEngine()}
	c := NewCoordinator([]Node{a, b}, 0.5)
	for i := 0; i < 16; i++ {
		c.pending[0] = append(c.pending[0], Msg{At: 0.25 + float64(i)*0.01, Src: 1, Seq: int64(i)})
	}
	var horizon float64 = 50
	c.Run(horizon, 1) // warm every buffer
	allocs := testing.AllocsPerRun(10, func() {
		horizon += 50
		c.Run(horizon, 1)
	})
	if allocs != 0 {
		t.Errorf("steady-state inline window loop allocates %v/run, want 0", allocs)
	}

	// Parallel: per-Run setup may allocate (worker goroutines, channels) but
	// windows must not — a 10x longer run may not allocate meaningfully more.
	short := testing.AllocsPerRun(5, func() {
		horizon += 10
		c.Run(horizon, 2)
	})
	long := testing.AllocsPerRun(5, func() {
		horizon += 100
		c.Run(horizon, 2)
	})
	if long > short+8 {
		t.Errorf("parallel window loop allocates per window: short-run=%v long-run=%v", short, long)
	}
	if math.IsNaN(short) || math.IsNaN(long) {
		t.Fatal("alloc measurement failed")
	}
}

// TestShardWorkersBeyondGOMAXPROCS: at GOMAXPROCS=1 a multi-worker Run is
// capped to the inline path, finishes, and matches the inline run.
func TestShardWorkersBeyondGOMAXPROCS(t *testing.T) {
	ref := runEcho(t, 7, 1)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := runEcho(t, 7, 4); strings.Join(got, "\n") != strings.Join(ref, "\n") {
		t.Error("workers=4 at GOMAXPROCS=1 diverged from inline run")
	}
}

// TestShardWorkersBeyondNodes: more workers than nodes are capped at the
// node count; the run finishes and matches the inline run.
func TestShardWorkersBeyondNodes(t *testing.T) {
	ref := runEcho(t, 3, 1)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	if got := runEcho(t, 3, 8); strings.Join(got, "\n") != strings.Join(ref, "\n") {
		t.Error("workers=8 over 3 nodes diverged from inline run")
	}
}

// TestShardConcurrentCoordinators runs two parallel coordinators at once on
// two procs, so their four workers oversubscribe the process and must park
// rather than spin each other out. Both must finish and match the inline
// run.
func TestShardConcurrentCoordinators(t *testing.T) {
	ref := strings.Join(runEcho(t, 7, 1), "\n")
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = strings.Join(runEcho(t, 7, 2), "\n")
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != ref {
			t.Errorf("concurrent run %d diverged from inline run", i)
		}
	}
}

// TestShardCounters: Windows and Routed count the same work at every worker
// count, accumulate across Runs, and return to zero on Reset.
func TestShardCounters(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range []int{1, 2} {
		a := &countNode{id: 0, eng: sim.NewEngine()}
		b := &countNode{id: 1, eng: sim.NewEngine()}
		c := NewCoordinator([]Node{a, b}, 0.5)
		for i := 0; i < 4; i++ {
			c.pending[0] = append(c.pending[0], Msg{At: 0.25 + float64(i)*0.01, Src: 1, Seq: int64(i)})
		}
		c.Run(10, w)
		c.Run(20, w)
		// Each Run restarts at window 1: 20 + 40 windows. Each seeded
		// message is re-sent 0.75 s after every delivery, at 0.25 + 0.75k
		// (plus its 0.01 stagger) for k = 0..26 by t = 20: 27 sends each.
		if c.Windows() != 60 {
			t.Errorf("workers=%d: Windows() = %d, want 60", w, c.Windows())
		}
		if c.Routed() != 4*27 {
			t.Errorf("workers=%d: Routed() = %d, want %d", w, c.Routed(), 4*27)
		}
		c.Reset(0.5)
		if c.Windows() != 0 || c.Routed() != 0 {
			t.Errorf("workers=%d: after Reset Windows()=%d Routed()=%d, want 0", w, c.Windows(), c.Routed())
		}
	}
}

// TestZeroAllocShardParallelWindows bounds the parallel path's allocations
// at a real worker count: testing.AllocsPerRun pins GOMAXPROCS to 1, which
// caps Run to the inline path, so this counts mallocs around Runs at
// GOMAXPROCS=2 instead. Spawning helpers is per Run; a 10x longer run may
// not allocate meaningfully more.
func TestZeroAllocShardParallelWindows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on synchronization paths")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	a := &countNode{id: 0, eng: sim.NewEngine()}
	b := &countNode{id: 1, eng: sim.NewEngine()}
	c := NewCoordinator([]Node{a, b}, 0.5)
	for i := 0; i < 16; i++ {
		c.pending[0] = append(c.pending[0], Msg{At: 0.25 + float64(i)*0.01, Src: 1, Seq: int64(i)})
	}
	horizon := 50.0
	c.Run(horizon, 2) // warm every buffer
	measure := func(span float64) uint64 {
		best := ^uint64(0)
		for rep := 0; rep < 5; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			horizon += span
			c.Run(horizon, 2)
			runtime.ReadMemStats(&m1)
			best = min(best, m1.Mallocs-m0.Mallocs)
		}
		return best
	}
	short, long := measure(10), measure(100)
	if long > short+8 {
		t.Errorf("parallel window loop allocates per window: short-run=%d long-run=%d mallocs", short, long)
	}
}
