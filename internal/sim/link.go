package sim

import (
	"math"
	"math/rand"
)

// Packet-mode congestion constants: the initial and maximum congestion
// window in packets, and the default MTU. AIMD: a lossy flight halves the
// window, a clean flight grows it by one.
const (
	pktInitialCwnd = 4
	pktMaxCwnd     = 64
	pktDefaultMTU  = 1500
)

// Link models one direction of a network hop as a first-class simulated
// component: a propagation delay, a bandwidth-shared pipe, and a packet-loss
// probability driving retransmission. It is the unit netem rules lower to
// when a scenario runs in simulated-network mode — unlike the closed-form
// netem.TransferSeconds, concurrent transfers on a Link contend for the
// pipe, so bursts back up on a slow gateway uplink exactly as they would on
// the real testbed.
//
// A transfer proceeds in attempts: serialize the payload through the shared
// pipe (processor-sharing — n concurrent transfers each get rate/n), then
// propagate for the fixed delay, then draw loss; a lost attempt resends the
// whole payload. Expected delivery time under zero contention is therefore
// (serialization + delay) / (1 - loss), matching netem.TransferSeconds
// exactly, and the loss draws come from the seeded RNG the link was built
// with, so fixed-seed runs are fully deterministic.
//
// EnablePacket switches the link to packetized TCP-like transport: the
// payload is cut into MTU-sized packets sent in congestion windows (AIMD
// backoff), each packet drawing loss independently, so lossy-path delivery
// tails are credible instead of whole-payload geometric.
//
// A fully lossy link (loss >= 100%) built that way is a black hole:
// Transfer returns without scheduling anything and onDone never fires (the
// analytical model prices the same path at +Inf). Callers that must not
// hang should reject such paths up front, as scenario.Run does. A link
// taken to loss >= 100 by Reconfigure mid-run is DOWN, not a black hole:
// payloads stall (new ones immediately, in-flight ones when their current
// attempt resolves) and resume in arrival order when a later transition
// brings loss back under 100.
//
// Transfer nodes are owned by the link's freelist with their stage
// continuations bound once per node, so steady-state link traffic performs
// zero heap allocations (gated by sim/alloc_test.go).
type Link struct {
	eng   *Engine
	delay float64
	loss  float64
	rng   *rand.Rand
	// bw shares the pipe among concurrent transfers (nil when the rate is
	// unlimited). Work is expressed in solo-serialization SECONDS (bits /
	// rateBps) with an aggregate rate of 1, not in raw bits: the shared
	// resource's completion epsilon is absolute, so feeding it 1e6-scale
	// bit counts would leave float residues that never cross it.
	bw *SharedResource

	invRate float64 // 1/rateBps, 0 when unlimited

	// rateRatio scales the pipe's aggregate rate relative to the built
	// rate; the bw TotalRate closure reads it, so Reconfigure can rescale
	// bandwidth mid-run for in-flight and future transfers alike. 1 on an
	// unreconfigured link (numerically identical to a constant-rate pipe).
	rateRatio float64

	// Construction-time parameters, the target of Restore (a flap's "up"
	// transition returns here regardless of intermediate transitions).
	origDelay, origRate, origLoss float64

	// managed marks a link under a fault schedule (set by the first
	// Reconfigure): loss >= 100 then means "down, park payloads" instead
	// of the construction-time black hole.
	managed bool
	// stalled holds payloads parked while the link is down, in arrival
	// order; capacity is pre-grown on the cold node-construction path so
	// parking itself never allocates.
	stalled []*linkTransfer

	// mtu > 0 selects packet mode (EnablePacket).
	mtu float64

	free []*linkTransfer
	all  []*linkTransfer // every node ever built, for Reset

	delivered   int64
	retransmits int64
	blackholed  int64
}

// linkTransfer is one in-flight payload; recycled through the freelist.
type linkTransfer struct {
	work   float64 // solo serialization time in seconds (whole-payload mode)
	onDone func()
	// Stage continuations, bound once per node: serialization finished
	// (start propagation) and propagation finished (loss draw / delivery).
	sent, arrived func()

	// Packet-mode state: payload bytes still to deliver, bytes in the
	// current flight, and the AIMD congestion window in packets.
	bytesLeft   float64
	flightBytes float64
	cwnd        int32
}

// NewLink builds a link on the engine. delaySec is the one-way propagation
// delay, rateBps the shared bandwidth in bits/s (0 = unlimited), lossPct
// the per-attempt loss percentage. The rng drives the loss draws; it may be
// shared with other links on the same engine (draws happen in deterministic
// event order).
func NewLink(eng *Engine, delaySec, rateBps, lossPct float64, rng *rand.Rand) *Link {
	if delaySec < 0 || delaySec != delaySec {
		delaySec = 0
	}
	l := &Link{eng: eng, delay: delaySec, loss: lossPct, rng: rng, rateRatio: 1}
	l.origDelay, l.origRate, l.origLoss = delaySec, rateBps, lossPct
	if rateBps > 0 {
		l.invRate = 1 / rateBps
		l.bw = NewSharedResource(eng, 1, func(w float64) float64 {
			if w <= 0 {
				return 0
			}
			return l.rateRatio
		})
	}
	return l
}

// EnablePacket switches the link to packetized TCP-like transport: payloads
// are cut into mtuBytes packets sent in congestion windows (AIMD: halve the
// window on a lossy flight, grow by one per clean flight), each packet
// drawing loss independently. mtuBytes <= 0 selects the 1500-byte default.
// Must be called before the first Transfer.
func (l *Link) EnablePacket(mtuBytes float64) {
	if mtuBytes <= 0 {
		mtuBytes = pktDefaultMTU
	}
	l.mtu = mtuBytes
}

// Reconfigure transitions the link to new parameters mid-run — the kernel
// primitive behind time-varying netem schedules (flaps, stepwise
// degradation). A negative delaySec, non-positive rateBps, or negative
// lossPct keeps the current value; a link built with unlimited rate stays
// unlimited. Raising loss to >= 100 takes the (now managed) link down:
// in-flight payloads stall when their current attempt resolves and new
// transfers park immediately, all resuming oldest-first when a later
// transition brings loss back under 100. Rate changes rescale the shared
// pipe for in-flight and future transfers alike, pricing elapsed
// serialization at the old rate first.
//
//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (l *Link) Reconfigure(delaySec, rateBps, lossPct float64) {
	l.managed = true
	if delaySec >= 0 && delaySec == delaySec {
		l.delay = delaySec
	}
	if rateBps > 0 && l.bw != nil {
		l.bw.Sync() // charge elapsed serialization at the old rate
		if rateBps == l.origRate {
			l.rateRatio = 1
		} else {
			l.rateRatio = rateBps * l.invRate
		}
		l.bw.Sync() // reschedule pending completions at the new rate
	}
	if lossPct >= 0 {
		wasDown := l.loss >= 100
		l.loss = lossPct
		if wasDown && lossPct < 100 {
			l.drainStalled()
		}
	}
}

// Restore returns the link to its construction-time parameters — the "up"
// transition of a flap schedule.
//
//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (l *Link) Restore() {
	l.Reconfigure(l.origDelay, l.origRate, l.origLoss)
}

// drainStalled resends every payload parked while the link was down, in
// arrival order.
//
//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (l *Link) drainStalled() {
	for i, t := range l.stalled {
		l.stalled[i] = nil
		l.send(t)
	}
	l.stalled = l.stalled[:0]
}

// Transfer moves payloadBytes across the link and runs onDone on delivery.
// On a fully lossy unmanaged link onDone never runs (nothing is scheduled);
// on a managed link that is currently down the payload parks until the link
// comes back up.
//
//simlint:noalloc steady-state link traffic (PR 5 contract, sim/alloc_test.go)
func (l *Link) Transfer(payloadBytes float64, onDone func()) {
	var t *linkTransfer
	if l.loss >= 100 && !l.managed {
		l.blackholed++
		return
	}
	if n := len(l.free); n > 0 {
		t = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		t = l.newTransfer() //simlint:allow noallocclosure //go:noinline freelist-growth constructor; the hot path reuses pooled transfers
	}
	t.work, t.onDone = payloadBytes*8*l.invRate, onDone
	if l.mtu > 0 {
		t.bytesLeft, t.cwnd = payloadBytes, pktInitialCwnd
	}
	if l.loss >= 100 {
		l.stalled = append(l.stalled, t)
		return
	}
	l.send(t)
}

// newTransfer builds a node with its stage continuations bound once; the
// cold path of Transfer. It must stay out of line so the node and closure
// escapes are not re-attributed into Transfer's //simlint:noalloc span.
// It also pre-grows the stall queue's capacity so parking payloads on a
// downed link never allocates on the event path.
//
//go:noinline
func (l *Link) newTransfer() *linkTransfer {
	t := &linkTransfer{}
	t.sent = func() { l.eng.Schedule(l.delay, t.arrived) }
	t.arrived = func() { l.arrive(t) }
	l.all = append(l.all, t)
	if cap(l.stalled) < len(l.all) {
		ns := make([]*linkTransfer, len(l.stalled), 2*len(l.all))
		copy(ns, l.stalled)
		l.stalled = ns
	}
	return t
}

// send starts one attempt: serialization through the shared pipe (when the
// rate is bounded), then propagation. In packet mode the attempt is the
// next congestion-window flight rather than the whole payload.
//
//simlint:noalloc steady-state link traffic
func (l *Link) send(t *linkTransfer) {
	if l.mtu > 0 {
		bytes := float64(t.cwnd) * l.mtu
		if bytes > t.bytesLeft {
			bytes = t.bytesLeft
		}
		t.flightBytes = bytes
		if l.bw != nil {
			l.bw.Add(bytes*8*l.invRate, t.sent)
			return
		}
		l.eng.Schedule(l.delay, t.arrived)
		return
	}
	if l.bw != nil {
		l.bw.Add(t.work, t.sent)
		return
	}
	l.eng.Schedule(l.delay, t.arrived)
}

// arrive resolves one attempt. If the link went down while the payload was
// in flight it parks until the link recovers; otherwise whole-payload mode
// draws a single loss (retransmit or deliver) and packet mode draws loss
// per packet of the flight, advancing the AIMD window.
//
//simlint:noalloc steady-state link traffic
func (l *Link) arrive(t *linkTransfer) {
	if l.loss >= 100 {
		// Only reachable on a managed link: an unmanaged fully-lossy link
		// never schedules attempts in the first place.
		l.stalled = append(l.stalled, t)
		return
	}
	if l.mtu > 0 {
		l.arriveFlight(t)
		return
	}
	if l.loss > 0 && l.rng.Float64()*100 < l.loss {
		l.retransmits++
		l.send(t)
		return
	}
	l.deliver(t)
}

// arriveFlight applies per-packet loss draws to the flight in packet order,
// advances the congestion window, and either finishes the payload or sends
// the next flight.
//
//simlint:noalloc steady-state link traffic (packet mode)
func (l *Link) arriveFlight(t *linkTransfer) {
	n := int(math.Ceil(t.flightBytes / l.mtu))
	if n < 1 {
		n = 1
	}
	lost := 0
	if l.loss > 0 {
		for i := 0; i < n; i++ {
			if l.rng.Float64()*100 < l.loss {
				lost++
			}
		}
	}
	if lost > 0 {
		l.retransmits += int64(lost)
		t.bytesLeft -= t.flightBytes * float64(n-lost) / float64(n)
		if t.cwnd /= 2; t.cwnd < 1 {
			t.cwnd = 1
		}
	} else {
		t.bytesLeft -= t.flightBytes
		if t.cwnd++; t.cwnd > pktMaxCwnd {
			t.cwnd = pktMaxCwnd
		}
	}
	if t.bytesLeft <= 1e-9 {
		l.deliver(t)
		return
	}
	l.send(t)
}

// deliver completes the payload and recycles the node.
//
//simlint:noalloc steady-state link traffic
func (l *Link) deliver(t *linkTransfer) {
	l.delivered++
	fn := t.onDone
	t.onDone = nil
	l.free = append(l.free, t)
	fn()
}

// Delivered returns how many payloads completed delivery.
func (l *Link) Delivered() int64 { return l.delivered }

// Retransmits returns how many attempts (whole-payload mode) or packets
// (packet mode) were lost and resent.
func (l *Link) Retransmits() int64 { return l.retransmits }

// Blackholed returns how many transfers were swallowed by a >= 100% lossy
// link.
func (l *Link) Blackholed() int64 { return l.blackholed }

// Stalled returns how many payloads are currently parked on a downed link.
func (l *Link) Stalled() int { return len(l.stalled) }

// Reset returns the link to a fresh state after an Engine.Reset, keeping
// the transfer freelist (and its bound continuations) so the next run's
// steady state allocates nothing. Reconfigured parameters revert to their
// construction-time values; packet mode persists. The caller owns
// re-seeding the rng.
//
//simlint:noalloc pooled-reuse path (PR 5 contract)
func (l *Link) Reset() {
	for _, t := range l.all {
		t.onDone = nil
	}
	l.free = append(l.free[:0], l.all...)
	for i := range l.stalled {
		l.stalled[i] = nil
	}
	l.stalled = l.stalled[:0]
	l.delay, l.loss, l.rateRatio = l.origDelay, l.origLoss, 1
	l.managed = false
	if l.bw != nil {
		l.bw.Reset(l.bw.MaxRate, nil)
	}
	l.delivered, l.retransmits, l.blackholed = 0, 0, 0
}
