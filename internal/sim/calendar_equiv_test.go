package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the pre-ladder event calendar — the single binary heap the
// kernel shipped with through PR 2 — as a test-only reference
// implementation, and drives randomized Schedule/Cancel/Reschedule/Run/Step
// sequences through both calendars side by side. The firing sequence (event
// identity and bit-exact clock value) must be identical: the ladder is a
// performance structure, never a semantic one.

// --- reference implementation (the old container/heap engine) --------------

type refEngine struct {
	now    float64
	seq    int64
	events refHeap
}

type refEvent struct {
	time      float64
	seq       int64
	fn        func()
	index     int
	cancelled bool
}

func (ev *refEvent) Cancel() { ev.cancelled = true }

func (e *refEngine) Schedule(delay float64, fn func()) *refEvent {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

func (e *refEngine) At(t float64, fn func()) *refEvent {
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	ev := &refEvent{time: t, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) Reschedule(ev *refEvent, t float64) bool {
	if ev == nil || ev.cancelled || ev.index < 0 {
		return false
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	ev.time = t
	ev.seq = e.seq
	heap.Fix(&e.events, ev.index)
	return true
}

func (e *refEngine) Step() bool {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.cancelled {
			continue
		}
		e.now = ev.time
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) Run(until float64) {
	for e.events.Len() > 0 {
		next := e.events[0]
		if next.cancelled {
			heap.Pop(&e.events)
			continue
		}
		if next.time > until {
			e.now = until
			return
		}
		heap.Pop(&e.events)
		e.now = next.time
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// --- side-by-side property test --------------------------------------------

type fireRec struct {
	id int
	t  float64
}

// eventFire logs a firing and optionally spawns a child event with a delay
// fixed at schedule time, exercising nested scheduling identically in both
// calendars. Child ids derive deterministically from the parent's.
func newFireFn(log *[]fireRec, now func() float64, sched func(delay float64, fn func()), id int, childDelay float64) func() {
	return func() {
		*log = append(*log, fireRec{id, now()})
		if childDelay >= 0 {
			childID := -(id + 1000)
			sched(childDelay, newFireFn(log, now, sched, childID, -1))
		}
	}
}

func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runCalendarEquiv(t, seed, 400)
	}
}

// TestCalendarSameInstantTiesMatchReference drives the calendar where the
// same-instant FIFO and the in-place Reschedule can go wrong: every time
// sits on a 1/64 s grid (1/128 s inside the current bucket), so (time, seq)
// ties between the FIFO and the front heap are common, and callbacks
// schedule zero-delay children and cancel or reschedule other pending
// events — to exactly Now(), inside the current bucket, or later.
func TestCalendarSameInstantTiesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		driveCalendarEquiv(t, seed, 400, true)
	}
}

func runCalendarEquiv(t *testing.T, seed int64, nOps int) {
	t.Helper()
	driveCalendarEquiv(t, seed, nOps, false)
}

// quantize rounds a time to the 1/64 s grid of the stress mode.
func quantize(x float64) float64 { return math.Round(x*64) / 64 }

// inBucket returns a time in [now, end of now's calendar bucket) on the
// 1/128 s grid; frac in [0, 1) picks the position.
func inBucket(now, frac float64) float64 {
	end := (math.Floor(now*invBucketW) + 1) / invBucketW
	return math.Floor((now+(end-now)*frac)*128) / 128
}

// calAction is what a stress-mode callback does when it fires. It is fixed
// when the event is scheduled, so both calendars replay it identically.
type calAction struct {
	id     int
	child  float64 // delay of a child scheduled on fire; < 0: none
	victim int     // handle to cancel or reschedule on fire; < 0: none
	op     int     // 0 cancel, 1 reschedule to now, 2 inside the bucket, 3 later
	frac   float64 // picks the reschedule target
}

// calSide is one calendar as the stress callbacks see it.
type calSide struct {
	log     *[]fireRec
	now     func() float64
	sched   func(delay float64, fn func())
	cancel  func(h int)
	resched func(h int, t float64)
}

// fireFn logs a firing, applies the action's cancel or reschedule, and
// spawns its child. A child repeats the victim with the next op; a
// top-level event's zero-delay child spawns one zero-delay grandchild.
func (s calSide) fireFn(a calAction) func() {
	return func() {
		now := s.now()
		*s.log = append(*s.log, fireRec{a.id, now})
		if a.victim >= 0 {
			switch a.op {
			case 0:
				s.cancel(a.victim)
			case 1:
				s.resched(a.victim, now)
			case 2:
				s.resched(a.victim, inBucket(now, a.frac))
			default:
				s.resched(a.victim, quantize(now+a.frac*4))
			}
		}
		if a.child >= 0 {
			c := calAction{id: a.id + 1<<20, child: -1, victim: a.victim, op: (a.op + 1) % 4, frac: a.frac}
			if a.child == 0 && a.id < 1<<20 {
				c.child = 0
			}
			s.sched(a.child, s.fireFn(c))
		}
	}
}

// driveCalendarEquiv runs one randomized operation sequence through the
// ladder calendar and the reference heap side by side; stress turns on the
// grid-quantized times and the callback actions of calAction.
func driveCalendarEquiv(t *testing.T, seed int64, nOps int, stress bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eNew := NewEngine()
	eOld := &refEngine{}
	var logNew, logOld []fireRec
	schedNew := func(d float64, fn func()) { eNew.Schedule(d, fn) }
	schedOld := func(d float64, fn func()) { eOld.Schedule(d, fn) }

	type pair struct {
		nev Event
		oev *refEvent
	}
	var handles []pair // includes fired/cancelled handles: staleness must agree
	nextID := 0

	// Reschedule results from inside callbacks, compared side by side.
	var reschedNew, reschedOld []bool
	sideNew := calSide{log: &logNew, now: eNew.Now, sched: schedNew,
		cancel:  func(h int) { handles[h].nev.Cancel() },
		resched: func(h int, at float64) { reschedNew = append(reschedNew, eNew.Reschedule(handles[h].nev, at)) }}
	sideOld := calSide{log: &logOld, now: func() float64 { return eOld.now }, sched: schedOld,
		cancel:  func(h int) { handles[h].oev.Cancel() },
		resched: func(h int, at float64) { reschedOld = append(reschedOld, eOld.Reschedule(handles[h].oev, at)) }}

	randDelay := func() float64 {
		switch r.Intn(10) {
		case 0:
			return 0 // the Schedule(0, ...) hot path
		case 1, 2:
			return r.Float64() * 0.05 // same-bucket churn
		case 3, 4, 5:
			return r.Float64() * 2 // near ring
		case 6, 7:
			return r.Float64() * 30 // beyond the 8 s ring horizon
		case 8:
			return r.Float64() * 300 // deep overflow
		default:
			return -r.Float64() // negative: clamps to now
		}
	}

	// recent picks one of the last 16 handles, which are likelier than
	// older ones to be pending.
	recent := func() int { return len(handles) - 1 - r.Intn(min(len(handles), 16)) }

	schedulePair := func(t float64, absolute bool) {
		id := nextID
		nextID++
		var fnN, fnO func()
		if stress {
			a := calAction{id: id, child: -1, victim: -1}
			switch k := r.Intn(10); {
			case k < 5:
				a.child = 0
			case k < 8:
				a.child = float64(1+r.Intn(4)) / 128 // in or near the bucket
			}
			if len(handles) > 0 && r.Intn(2) == 0 {
				a.victim = recent()
				a.op, a.frac = r.Intn(4), r.Float64()
			}
			fnN, fnO = sideNew.fireFn(a), sideOld.fireFn(a)
		} else {
			childDelay := -1.0
			if r.Intn(10) < 3 {
				childDelay = r.Float64()
			}
			fnN = newFireFn(&logNew, eNew.Now, schedNew, id, childDelay)
			fnO = newFireFn(&logOld, func() float64 { return eOld.now }, schedOld, id, childDelay)
		}
		if absolute {
			handles = append(handles, pair{eNew.At(t, fnN), eOld.At(t, fnO)})
		} else {
			handles = append(handles, pair{eNew.Schedule(t, fnN), eOld.Schedule(t, fnO)})
		}
	}

	check := func(op string) {
		if len(logNew) != len(logOld) {
			t.Fatalf("seed %d after %s: fired %d vs reference %d", seed, op, len(logNew), len(logOld))
		}
		for i := range logNew {
			if logNew[i].id != logOld[i].id || math.Float64bits(logNew[i].t) != math.Float64bits(logOld[i].t) {
				t.Fatalf("seed %d after %s: fire %d = %+v, reference %+v", seed, op, i, logNew[i], logOld[i])
			}
		}
		if eNew.Fired() != int64(len(logOld)) {
			t.Fatalf("seed %d after %s: Fired() = %d, reference fired %d", seed, op, eNew.Fired(), len(logOld))
		}
		if !slices.Equal(reschedNew, reschedOld) {
			t.Fatalf("seed %d after %s: in-callback Reschedule results %v, reference %v", seed, op, reschedNew, reschedOld)
		}
		if math.Float64bits(eNew.Now()) != math.Float64bits(eOld.now) {
			t.Fatalf("seed %d after %s: now %v vs reference %v", seed, op, eNew.Now(), eOld.now)
		}
		if eNew.Pending() != eOld.Pending() {
			t.Fatalf("seed %d after %s: pending %d vs reference %d", seed, op, eNew.Pending(), eOld.Pending())
		}
	}

	for op := 0; op < nOps; op++ {
		switch k := r.Intn(100); {
		case k < 45:
			d := randDelay()
			if stress {
				if r.Intn(3) == 0 {
					d = inBucket(eNew.Now(), r.Float64()) - eNew.Now()
				} else {
					d = quantize(d)
				}
			}
			schedulePair(d, false)
		case k < 55:
			at := eNew.Now() + r.Float64()*5 - 2 // absolute, possibly past
			if stress {
				at = quantize(at)
			}
			schedulePair(at, true)
		case k < 65:
			if len(handles) > 0 {
				p := handles[r.Intn(len(handles))]
				p.nev.Cancel()
				p.oev.Cancel()
			}
		case k < 75:
			if len(handles) > 0 {
				var p pair
				if stress {
					p = handles[recent()]
				} else {
					p = handles[r.Intn(len(handles))]
				}
				target := eNew.Now() + r.Float64()*11 - 1
				if stress {
					switch r.Intn(3) {
					case 0:
						target = eNew.Now()
					case 1:
						target = inBucket(eNew.Now(), r.Float64())
					default:
						target = quantize(target)
					}
				}
				gotN := eNew.Reschedule(p.nev, target)
				gotO := eOld.Reschedule(p.oev, target)
				if gotN != gotO {
					t.Fatalf("seed %d: Reschedule returned %v, reference %v", seed, gotN, gotO)
				}
			}
		case k < 80:
			sn, so := eNew.Step(), eOld.Step()
			if sn != so {
				t.Fatalf("seed %d: Step returned %v, reference %v", seed, sn, so)
			}
			check("step")
		default:
			until := eNew.Now() + r.Float64()*3
			if stress {
				if r.Intn(4) > 0 {
					// Short steps keep the clock in a bucket while events
					// accumulate in it.
					until = eNew.Now() + r.Float64()*0.05
				}
				until = quantize(until)
			}
			eNew.Run(until)
			eOld.Run(until)
			check("run")
		}
	}
	// Drain both calendars completely.
	eNew.Run(1e9)
	eOld.Run(1e9)
	check("final drain")
}
