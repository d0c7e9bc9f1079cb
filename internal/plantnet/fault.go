package plantnet

// Fault injection: RunOptions.Faults compiles to a flat event timeline
// (internal/fault) that is scheduled on the calendar at setup. Because
// setup-scheduled events carry the lowest sequence numbers at their
// instant, a fault event fires before any same-instant pipeline event —
// so when a crash handler runs, no pending same-instant pool grant or
// completion exists and the wholesale Pool.Crash/SharedResource.Crash +
// in-flight requeue is exact. All stochastic fault behavior (churn
// intervals, failover delays) draws from dedicated streams derived from
// the run seed (+307 compile, +313 failover), so a non-faulted run's RNG
// consumption — and therefore every existing golden — is untouched.

import (
	"fmt"

	"e2clab/internal/fault"
	"e2clab/internal/rngutil"
	"e2clab/internal/sim"
)

// setupFaults validates the spec against the prepared topology, compiles
// the timeline (or takes FaultTimeline verbatim), and schedules it. Called
// from run() on a prepared engine.
func (e *engine) setupFaults(opts RunOptions) error {
	if err := validateFaultTargets(opts, e.netModel, len(e.reps)); err != nil {
		return err
	}
	evs := opts.FaultTimeline
	if evs == nil {
		ngw := 0
		if e.net != nil {
			ngw = len(e.net.paths)
		}
		evs = fault.CompileInto(e.faultEvents, opts.Faults, opts.Seed+307, opts.Duration, ngw)
	}
	installFaults(e, evs, opts.Seed, len(e.reps), true)
	return nil
}

// validateFaultTargets checks the fault spec and the fault timeline against
// the run's topology: nm is the simulated network (nil in analytical mode)
// and replicas the replica count. Both kernels validate the GLOBAL
// topology with it, so a schedule fails with the same message whatever
// Shards is.
func validateFaultTargets(opts RunOptions, nm *NetworkModel, replicas int) error {
	spec := opts.Faults
	if err := spec.Validate(); err != nil {
		return err
	}
	ngw, hasBackhaul := 0, false
	if nm != nil {
		for _, c := range nm.Classes {
			ngw += c.Gateways
		}
		// The backhaul exists exactly when one of its specs is non-zero.
		for _, l := range nm.BackhaulUp {
			hasBackhaul = hasBackhaul || !l.IsZero()
		}
		for _, l := range nm.BackhaulDown {
			hasBackhaul = hasBackhaul || !l.IsZero()
		}
	}
	checkLinkTarget := func(g int, what string) error {
		if g == fault.Backhaul {
			if !hasBackhaul {
				return fmt.Errorf("plantnet: %s targets the backhaul, but the model has no backhaul links", what)
			}
			return nil
		}
		if g >= ngw {
			return fmt.Errorf("plantnet: %s targets gateway %d of %d", what, g, ngw)
		}
		// A gateway has dedicated links exactly when its class's specs
		// are non-zero.
		k := g
		for _, c := range nm.Classes {
			if k < c.Gateways {
				if c.Up.IsZero() && c.Down.IsZero() {
					return fmt.Errorf("plantnet: %s targets gateway %d, whose class has no dedicated uplink", what, g)
				}
				break
			}
			k -= c.Gateways
		}
		return nil
	}
	if !spec.IsZero() {
		if spec.GatewayChurn != nil && nm == nil {
			return fmt.Errorf("plantnet: gateway churn requires a simulated network model")
		}
		if (len(spec.LinkFlaps) > 0 || len(spec.LinkSchedule) > 0) && nm == nil {
			return fmt.Errorf("plantnet: link flaps/schedules require a simulated network model")
		}
		for _, cr := range spec.ReplicaCrashes {
			if cr.Replica >= replicas {
				return fmt.Errorf("plantnet: crash targets replica %d of %d", cr.Replica, replicas)
			}
		}
		for _, f := range spec.LinkFlaps {
			if err := checkLinkTarget(f.Gateway, "link flap"); err != nil {
				return err
			}
		}
		for _, tr := range spec.LinkSchedule {
			if err := checkLinkTarget(tr.Gateway, "link transition"); err != nil {
				return err
			}
		}
	}
	for i := range opts.FaultTimeline {
		ev := &opts.FaultTimeline[i]
		switch ev.Kind {
		case fault.GatewayLeave, fault.GatewayJoin:
			if nm == nil || ev.Target >= ngw {
				return fmt.Errorf("plantnet: timeline event %d targets gateway %d of %d", i, ev.Target, ngw)
			}
		case fault.ReplicaCrash, fault.ReplicaRecover:
			if ev.Target >= replicas {
				return fmt.Errorf("plantnet: timeline event %d targets replica %d of %d", i, ev.Target, replicas)
			}
		case fault.LinkDown, fault.LinkUp, fault.LinkSet:
			if nm == nil {
				return fmt.Errorf("plantnet: timeline event %d needs a simulated network model", i)
			}
			if err := checkLinkTarget(ev.Target, "timeline event"); err != nil {
				return err
			}
		}
	}
	return nil
}

// installFaults schedules an engine's fault timeline: events are placed on
// the calendar before arrivals and sampler ticks, so at any shared instant
// they fire first. replicas sizes the liveness mirror (a sharded domain
// tracks the GLOBAL replica count; its own reps slice is empty), and
// withRng seeds the failover-delay stream of an engine that owns replicas.
func installFaults(e *engine, evs []fault.Event, seed int64, replicas int, withRng bool) {
	e.faultEvents = append(e.faultEvents[:0], evs...)
	ngw := 0
	if e.net != nil {
		ngw = len(e.net.paths)
	}
	e.gwDown = resetBools(e.gwDown, ngw)
	e.repDown = resetBools(e.repDown, replicas)
	if withRng {
		if e.faultRng == nil {
			e.faultRng = rngutil.New(seed + 313)
		} else {
			e.faultRng.Seed(seed + 313)
		}
	}
	if e.faultStepFn == nil {
		e.faultStepFn = e.faultStep
	}
	for i := range e.faultEvents {
		e.sim.At(e.faultEvents[i].At, e.faultStepFn)
	}
}

// resetBools returns a length-n all-false slice reusing b's capacity.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// faultStep dispatches the next timeline event. Events are scheduled in
// timeline order at setup, so same-instant events fire in timeline order
// and a single cursor tracks which one is due — one bound closure total,
// zero allocations per event.
//
//simlint:noalloc fault event dispatch (PR 7 contract)
func (e *engine) faultStep() {
	ev := &e.faultEvents[e.faultCursor]
	e.faultCursor++
	switch ev.Kind {
	case fault.GatewayLeave:
		if !e.gwDown[ev.Target] {
			e.gwDown[ev.Target] = true
			e.gwDownCount++
		}
	case fault.GatewayJoin:
		if e.gwDown[ev.Target] {
			e.gwDown[ev.Target] = false
			e.gwDownCount--
			e.drainParked()
		}
	case fault.ReplicaCrash:
		if e.shRole == shDomain {
			e.mirrorReplica(ev.Target, true)
			return
		}
		e.crashReplica(ev.Target, ev.RequeueDelaySec)
	case fault.ReplicaRecover:
		if e.shRole == shDomain {
			e.mirrorReplica(ev.Target, false)
			return
		}
		e.recoverReplica(ev.Target)
	case fault.LinkDown, fault.LinkUp, fault.LinkSet:
		e.applyLinkEvent(ev)
	}
}

// crashReplica kills replica ri: all in-service work is dropped wholesale
// (Pool.Crash / SharedResource.Crash keep the monitoring integrals), then
// every in-flight request is requeued on a surviving replica after a
// seeded exponential failover delay of mean meanDelay — or counted as
// lost when no replica survives.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (e *engine) crashReplica(ri int, meanDelay float64) {
	if e.repDown[ri] {
		return
	}
	rep := e.reps[ri]
	e.repDown[ri] = true
	e.repDownCount++
	rep.cpu.Crash()
	rep.gpu.Crash()
	rep.http.Crash()
	rep.dl.Crash()
	rep.ex.Crash()
	rep.ss.Crash()
	alive := e.repDownCount < len(e.reps)
	for i, req := range rep.inflight {
		rep.inflight[i] = nil
		req.timer.Cancel() // pending download / simsearch-IO stage timer
		req.ifIdx = -1
		if e.resOn {
			e.crashArm(req, alive, meanDelay)
			continue
		}
		if !alive {
			e.cCrashFail++
			if e.shRole == shCore {
				// Sharded: the loss crosses back to the owning domain,
				// which does the cFailed accounting and parks its client.
				e.coreEmitFail(req)
				continue
			}
			e.cFailed++
			e.freeReqs = append(e.freeReqs, req)
			if !e.openLoop {
				e.parked++
			}
			continue
		}
		e.cCrashReq++
		req.tasks = [9]float64{}
		e.reassign(req)
		e.sim.Schedule(e.faultRng.ExpFloat64()*meanDelay, req.then((*engine).arrive))
	}
	rep.inflight = rep.inflight[:0]
}

// recoverReplica brings replica ri back empty: pools and resources were
// left clean by Crash, the pinned extract-thread hold is re-added, and
// parked closed-loop clients resume.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (e *engine) recoverReplica(ri int) {
	if !e.repDown[ri] {
		return
	}
	e.repDown[ri] = false
	e.repDownCount--
	e.reps[ri].cpu.AddHold(e.extractHold)
	e.drainParked()
}

// applyLinkEvent applies a link transition to the target domain: the
// shared backhaul (both directions) or one gateway's dedicated uplink
// pair.
//
//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (e *engine) applyLinkEvent(ev *fault.Event) {
	if ev.Target == fault.Backhaul {
		for _, l := range e.net.backhaul {
			e.transitionLink(l, ev)
		}
		return
	}
	own := e.net.own[ev.Target]
	if own[0] != nil {
		e.transitionLink(own[0], ev)
	}
	if own[1] != nil {
		e.transitionLink(own[1], ev)
	}
}

//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (e *engine) transitionLink(l *sim.Link, ev *fault.Event) {
	switch ev.Kind {
	case fault.LinkDown:
		l.Reconfigure(-1, 0, 100)
	case fault.LinkUp:
		l.Restore()
	case fault.LinkSet:
		l.Reconfigure(ev.DelaySec, ev.RateBps, ev.LossPct)
	}
}

// admit gates a request's arrival at its replica when faults are active:
// a request bound for a dead replica is reassigned to a survivor (or
// counted lost and, closed-loop, parked); admitted requests enter the
// replica's in-flight set.
//
//simlint:noalloc fault bookkeeping on the request hot path (PR 7 contract)
func (e *engine) admit(req *request) bool {
	if e.repDown[req.repIdx] {
		if e.repDownCount >= len(e.reps) {
			e.cCrashFail++
			if e.resOn {
				e.resolveArm(req)
				return false
			}
			if e.shRole == shCore {
				e.coreEmitFail(req)
				return false
			}
			e.cFailed++
			e.freeReqs = append(e.freeReqs, req)
			if !e.openLoop {
				e.parked++
			}
			return false
		}
		e.reassign(req)
	}
	req.ifIdx = int32(len(req.rep.inflight))
	req.rep.inflight = append(req.rep.inflight, req)
	return true
}

// reassign points req at the next live replica in round-robin order.
// Callers guarantee at least one replica is alive.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (e *engine) reassign(req *request) {
	n := len(e.reps)
	idx := e.next % n
	for e.repDown[idx] {
		e.next++
		idx = e.next % n
	}
	e.next++
	req.rep = e.reps[idx]
	req.repIdx = int32(idx)
}

// untrack removes req from its replica's in-flight set (swap-remove).
//
//simlint:noalloc fault bookkeeping on the request hot path (PR 7 contract)
func (e *engine) untrack(req *request) {
	if req.ifIdx < 0 {
		return
	}
	rep := req.rep
	last := len(rep.inflight) - 1
	moved := rep.inflight[last]
	rep.inflight[req.ifIdx] = moved
	moved.ifIdx = req.ifIdx
	rep.inflight[last] = nil
	rep.inflight = rep.inflight[:last]
	req.ifIdx = -1
}

// failGateway fails a request whose gateway departed while it was in
// flight — the churn outcome with its own Metrics counter. The node
// recycles immediately and a closed-loop client retries through the
// (live-gateway) round-robin at once; requests on the up leg never
// reached the replica, and requests on the down leg already left it, so
// no replica resources are held at this point.
//
//simlint:noalloc fault event path (gateway churn, PR 7 contract)
func (e *engine) failGateway(req *request) {
	e.cGatewayFail++
	if e.shRole == shCore {
		// Sharded: the core detected the churn (global gwDown mirror); the
		// owning domain does the cFailed accounting and client resubmit.
		e.coreEmitFail(req)
		return
	}
	e.cFailed++
	e.freeReqs = append(e.freeReqs, req)
	if !e.openLoop {
		e.submit()
	}
}

// submitManaged is submit() under a fault schedule and/or a resilience
// policy: the replica round-robin skips dead replicas and open circuit
// breakers, the gateway round-robin skips departed gateways (failing
// over to a same-class survivor when the policy routes around churn),
// and new arms are deadline/hedge-armed. With nothing alive the arrival
// is dropped (open loop) or the client parks until the next join or
// recovery drains it. With faults on and no policy this is
// branch-for-branch the PR 7 submitFaulted.
//
//simlint:noalloc fault/policy-aware request submission
func (e *engine) submitManaged() {
	n := len(e.reps)
	if e.faultsOn && e.repDownCount >= n {
		e.dropArrival()
		return
	}
	idx := e.pickReplica()
	if e.net != nil {
		if e.faultsOn && e.gwDownCount >= len(e.net.paths) {
			e.dropArrival()
			return
		}
		g := e.pickGateway()
		req := e.newRequest(e.reps[idx])
		req.repIdx = int32(idx)
		req.path = &e.net.paths[g]
		req.gw = int32(g)
		req.hop = 0
		if e.resOn {
			e.armRequest(req)
		}
		e.netUp(req)
		return
	}
	req := e.newRequest(e.reps[idx])
	req.repIdx = int32(idx)
	if e.resOn {
		e.armRequest(req)
	}
	e.sim.Schedule(e.cal.NetworkRTT/2, req.then((*engine).arrive))
}

// pickReplica advances the replica round-robin, skipping crashed
// replicas (fault schedule) and open circuit breakers (resilience
// policy). When every live replica's breaker is open the current live
// candidate is used anyway — admission control must not manufacture a
// total outage. Callers guarantee at least one replica is alive.
//
//simlint:noalloc fault/policy-aware routing (request hot path)
func (e *engine) pickReplica() int {
	n := len(e.reps)
	idx := e.next % n
	for e.faultsOn && e.repDown[idx] {
		e.next++
		idx = e.next % n
	}
	if e.resOn && e.resBrkThresh > 0 {
		for tries := 0; tries < n && e.brkSkip(idx); tries++ {
			e.next++
			idx = e.next % n
			for e.faultsOn && e.repDown[idx] {
				e.next++
				idx = e.next % n
			}
		}
		if e.brkState[idx] == brkHalfOpen {
			e.brkState[idx] = brkProbing
		}
	}
	e.next++
	return idx
}

// pickGateway advances the gateway round-robin, skipping departed
// gateways. Under failover a down slot re-routes to the nearest
// surviving same-class gateway instead of silently advancing, counting
// a re-route. Callers guarantee at least one gateway is up.
//
//simlint:noalloc fault/policy-aware routing (request hot path)
func (e *engine) pickGateway() int {
	ng := len(e.net.paths)
	g := e.nextGw % ng
	if e.faultsOn && e.gwDown[g] {
		if e.resOn && e.resFailover {
			if s := e.nearestSameClass(g); s >= 0 {
				e.nextGw++
				e.cRerouted++
				return s
			}
		}
		for e.gwDown[g] {
			e.nextGw++
			g = e.nextGw % ng
		}
	}
	e.nextGw++
	return g
}

// dropArrival records an arrival that found no live capacity.
//
//simlint:noalloc fault event path (PR 7 contract)
func (e *engine) dropArrival() {
	if e.openLoop {
		e.cDropped++
		e.cFailed++
		return
	}
	e.parked++
}

// drainParked resubmits every parked closed-loop client once; clients
// that still find no capacity re-park (the count is latched up front, so
// a fruitless drain terminates).
//
//simlint:noalloc fault event path (PR 7 contract)
func (e *engine) drainParked() {
	n := e.parked
	e.parked = 0
	for i := 0; i < n; i++ {
		e.submit()
	}
}
