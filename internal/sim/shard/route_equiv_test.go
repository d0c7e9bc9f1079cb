package shard

import (
	"math/rand"
	"testing"
)

// This file keeps the routing the coordinator shipped with — each message
// inserted into its destination's pending buffer by shifting it back from
// the tail — as a test-only reference, and drives seeded multi-source
// emission streams through both it and the coordinator's key-sort-and-merge
// route. Out-of-order At within a source, exact At ties across sources and
// messages due several windows ahead are all generated; the pending buffers
// (and the inboxes delivered from them) must be == element-wise at every
// barrier: the merge is a performance structure, never a semantic one.

// --- reference implementation (per-message insertion) -----------------------

// less is the mailbox delivery order: (At, Src, Seq).
func (m *Msg) less(o *Msg) bool {
	if m.At != o.At {
		return m.At < o.At
	}
	if m.Src != o.Src {
		return m.Src < o.Src
	}
	return m.Seq < o.Seq
}

// insert places m into the sorted pending buffer, shifting it back from the
// tail past every message it precedes.
func insert(ps *[]Msg, m Msg) {
	p := append(*ps, m)
	for i := len(p) - 1; i > 0 && p[i].less(&p[i-1]); i-- {
		p[i], p[i-1] = p[i-1], p[i]
	}
	*ps = p
}

// refRouter is the reference coordinator's mailbox state.
type refRouter struct {
	pending [][]Msg
	inboxes [][]Msg
}

func (r *refRouter) deliver(end float64) {
	for d := range r.pending {
		p := r.pending[d]
		due := 0
		for due < len(p) && p[due].At <= end {
			due++
		}
		r.inboxes[d] = append(r.inboxes[d][:0], p[:due]...)
		r.pending[d] = p[:copy(p, p[due:])]
	}
}

// route inserts every outbox's messages in fixed node order. It reads the
// outboxes without clearing them, so it must run before the coordinator's
// route consumes the same emissions.
func (r *refRouter) route(outs []Outbox) {
	for i := range outs {
		for _, m := range outs[i].msgs {
			insert(&r.pending[m.Dst], m)
		}
	}
}

// --- the differential driver ------------------------------------------------

// routeWindow is the reference window width. Emissions are due on a grid of
// routeWindow/4 up to four windows ahead, so grid points collide across
// sources (exact At ties) and a source's emissions come out of At order.
const routeWindow = 0.5

// driveRouting decodes data into a stream of windows over nodes nodes and
// checks the coordinator's deliver+route against the reference at every
// barrier. Each window reads a count byte, then three bytes per message:
// source, destination, and due-time grid step. It returns the number of
// messages routed.
func driveRouting(t *testing.T, nodes int, data []byte) int {
	t.Helper()
	c := NewCoordinator(make([]Node, nodes), routeWindow)
	ref := &refRouter{pending: make([][]Msg, nodes), inboxes: make([][]Msg, nodes)}
	token := int64(0)
	for w := 1; len(data) > 0; w++ {
		end := routeWindow * float64(w)
		c.deliver(end)
		ref.deliver(end)
		for d := 0; d < nodes; d++ {
			if !sameMsgs(c.inboxes[d], ref.inboxes[d]) {
				t.Fatalf("window %d: inbox of node %d differs from the reference:\n got %v\nwant %v", w, d, c.inboxes[d], ref.inboxes[d])
			}
		}
		cnt := int(data[0] % 24)
		data = data[1:]
		for ; cnt > 0 && len(data) >= 3; cnt-- {
			src, dst := int(data[0])%nodes, int32(data[1])%int32(nodes)
			at := end + routeWindow/4*float64(1+data[2]%16)
			data = data[3:]
			token++
			c.outs[src].Send(dst, Msg{At: at, Token: token, Kind: int32(w)})
		}
		ref.route(c.outs)
		c.route(end)
		for d := 0; d < nodes; d++ {
			if !sameMsgs(c.pending[d], ref.pending[d]) {
				t.Fatalf("window %d: pending buffer of node %d differs from the reference:\n got %v\nwant %v", w, d, c.pending[d], ref.pending[d])
			}
		}
	}
	if c.Routed() != token {
		t.Fatalf("Routed() = %d, want %d", c.Routed(), token)
	}
	return int(token)
}

func sameMsgs(a, b []Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// routingSeed is one emission stream for driveRouting.
type routingSeed struct {
	nodes int
	data  []byte
}

// routingSeeds is the fixed seed table: hand-built streams for the edge
// cases, then seeded random streams over several node counts.
func routingSeeds() []routingSeed {
	seeds := []routingSeed{
		// Every source emits to node 0 at the same grid step: pure
		// (Src, Seq) tiebreak.
		{4, []byte{8, 3, 0, 5, 2, 0, 5, 1, 0, 5, 0, 0, 5, 3, 0, 5, 2, 0, 5, 1, 0, 5, 0, 0, 5}},
		// One source, descending due times: out-of-order At.
		{2, []byte{5, 1, 0, 15, 1, 0, 11, 1, 0, 7, 1, 0, 3, 1, 0, 0}},
		// Far-ahead messages first, then nearer ones in later windows:
		// new keys must merge before older pending entries.
		{3, []byte{3, 0, 1, 15, 2, 1, 14, 1, 1, 15, 2, 0, 1, 4, 2, 1, 1, 1, 1, 2, 0, 0, 1, 0, 1, 0}},
		// Empty windows between bursts.
		{2, []byte{0, 0, 2, 0, 1, 9, 1, 0, 9, 0, 0, 1, 1, 1, 3}},
	}
	for s := int64(1); s <= 48; s++ {
		r := rand.New(rand.NewSource(s))
		data := make([]byte, 64+r.Intn(512))
		r.Read(data)
		seeds = append(seeds, routingSeed{2 + int(s%7), data})
	}
	return seeds
}

// TestShardRoutingMatchesReference runs the fixed seed table through the
// differential driver.
func TestShardRoutingMatchesReference(t *testing.T) {
	total := 0
	for _, s := range routingSeeds() {
		total += driveRouting(t, s.nodes, s.data)
	}
	if total < 1000 {
		t.Fatalf("seed table routed only %d messages", total)
	}
}

// FuzzShardRouting explores emission streams beyond the seed table.
func FuzzShardRouting(f *testing.F) {
	for _, s := range routingSeeds() {
		f.Add(uint8(s.nodes), s.data)
	}
	f.Fuzz(func(t *testing.T, nodes uint8, data []byte) {
		driveRouting(t, 1+int(nodes%9), data)
	})
}
