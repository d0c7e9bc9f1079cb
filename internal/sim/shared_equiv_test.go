package sim

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps the per-job processor-sharing loop — the SharedResource
// the kernel shipped with before the tracked-minimum rewrite — as a
// test-only reference implementation, and drives seeded random streams of
// Add, AddHold/RemoveHold, Sync with a rebound rate, Crash and Reset through
// both side by side. Completion order, completion instants, the work
// integral and the active weight must be bit-identical: tracking the
// minimum is a performance structure, never a semantic one.

// --- reference implementation (the per-job loop) ---------------------------

// refShared recomputes every job's rate with a division on each advance and
// scans every job for the soonest completion on each reschedule.
type refShared struct {
	eng       *Engine
	TotalRate func(float64) float64
	jobs      []*refJob
	jobWeight float64
	holds     float64
	nextEv    Event
	hasNext   bool
	lastT     float64
	workInt   float64
}

type refJob struct {
	remaining float64
	weight    float64
	onDone    func()
}

func newRefShared(eng *Engine, totalRate func(float64) float64) *refShared {
	return &refShared{eng: eng, TotalRate: totalRate, lastT: eng.Now()}
}

func (s *refShared) complete() {
	s.hasNext = false
	s.advance()
	s.reschedule()
}

func (s *refShared) Add(work float64, onDone func()) {
	if work <= 0 {
		s.eng.Schedule(0, onDone)
		return
	}
	s.advance()
	s.jobs = append(s.jobs, &refJob{remaining: work, weight: 1, onDone: onDone})
	s.jobWeight++
	s.reschedule()
}

func (s *refShared) AddHold(weight float64) {
	if weight <= 0 {
		return
	}
	s.advance()
	s.holds += weight
	s.reschedule()
}

func (s *refShared) RemoveHold(weight float64) {
	if weight <= 0 {
		return
	}
	s.advance()
	s.holds -= weight
	if s.holds < 0 {
		s.holds = 0
	}
	s.reschedule()
}

func (s *refShared) Reset(_ float64, totalRate func(float64) float64) {
	s.jobs = s.jobs[:0]
	s.jobWeight, s.holds = 0, 0
	s.nextEv, s.hasNext = Event{}, false
	s.lastT = s.eng.Now()
	s.workInt = 0
	if totalRate != nil {
		s.TotalRate = totalRate
	}
}

func (s *refShared) Sync() {
	s.advance()
	s.reschedule()
}

func (s *refShared) Crash() {
	now := s.eng.Now()
	if dt := now - s.lastT; dt > 0 {
		if w := s.ActiveWeight(); w > 0 {
			s.workInt += s.TotalRate(w) * dt
		}
		s.lastT = now
	}
	s.jobs = s.jobs[:0]
	s.jobWeight, s.holds = 0, 0
	if s.hasNext {
		s.nextEv.Cancel()
		s.hasNext = false
	}
}

func (s *refShared) ActiveWeight() float64 { return s.holds + s.jobWeight }

func (s *refShared) ActiveJobs() int { return len(s.jobs) }

func (s *refShared) WorkIntegral() float64 {
	s.advance()
	s.reschedule()
	return s.workInt
}

func (s *refShared) advance() {
	now := s.eng.Now()
	dt := now - s.lastT
	if dt <= 0 {
		return
	}
	s.lastT = now
	w := s.ActiveWeight()
	if w <= 0 {
		return
	}
	total := s.TotalRate(w)
	s.workInt += total * dt
	const eps = 1e-12
	kept := s.jobs[:0]
	for _, j := range s.jobs {
		rate := j.weight * total / w
		j.remaining -= rate * dt
		if j.remaining <= eps {
			s.jobWeight -= j.weight
			s.eng.Schedule(0, j.onDone)
		} else {
			kept = append(kept, j)
		}
	}
	s.jobs = kept
	if len(s.jobs) == 0 {
		s.jobWeight = 0
	}
}

func (s *refShared) reschedule() {
	if len(s.jobs) == 0 {
		if s.hasNext {
			s.nextEv.Cancel()
			s.hasNext = false
		}
		return
	}
	w := s.ActiveWeight()
	total := s.TotalRate(w)
	if total <= 0 {
		if s.hasNext {
			s.nextEv.Cancel()
			s.hasNext = false
		}
		return
	}
	soonest := math.Inf(1)
	for _, j := range s.jobs {
		rate := j.weight * total / w
		t := j.remaining / rate
		if t < soonest {
			soonest = t
		}
	}
	now := s.eng.Now()
	at := now + soonest
	if at <= now {
		at = math.Nextafter(now, math.Inf(1))
	}
	if s.hasNext && s.eng.Reschedule(s.nextEv, at) {
		return
	}
	s.nextEv = s.eng.At(at, s.complete)
	s.hasNext = true
}

// --- random operation streams ----------------------------------------------

type psResource interface {
	Add(work float64, onDone func())
	AddHold(weight float64)
	RemoveHold(weight float64)
	Sync()
	Crash()
	Reset(maxRate float64, totalRate func(float64) float64)
	ActiveWeight() float64
	ActiveJobs() int
	WorkIntegral() float64
}

type psOpKind int

const (
	psAdd psOpKind = iota
	psAddHold
	psRemoveHold
	psRebind  // Sync, change the rate ratio, Sync (as Link.Reconfigure does)
	psObserve // WorkIntegral
	psCrash
	psReset // Engine.Reset plus SharedResource.Reset with a fresh curve
)

type psOp struct {
	dt    float64 // simulated time run before the op; 0 = same instant
	kind  psOpKind
	works []float64 // psAdd: jobs submitted at the same instant
	arg   float64   // hold weight, rate ratio, or reset capacity
}

// psCurve is a rate curve family: the CPU curve min(w, c) or the GPU curve
// peak*min(w, c)/c, parameterized by its saturation point c.
type psCurve struct {
	gpu  bool
	peak float64
}

func (c psCurve) rate(capacity float64) func(float64) float64 {
	if !c.gpu {
		return CPURate(capacity)
	}
	peak := c.peak
	return func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		return peak * math.Min(w, capacity) / capacity
	}
}

// genPSOps draws a seeded stream. A conserving stream has no holds, crashes,
// resets or clock jumps, so every unit of submitted work must be delivered.
func genPSOps(seed int64, n int, conserving bool) []psOp {
	r := rand.New(rand.NewSource(seed))
	randWork := func() float64 {
		switch r.Intn(10) {
		case 0:
			return 0 // zero-length: completes via the calendar
		case 1:
			return r.Float64() * 1e-12 // already within eps of done
		case 2:
			return r.Float64() * 0.01
		default:
			return r.ExpFloat64()
		}
	}
	ops := make([]psOp, 0, n)
	for len(ops) < n {
		op := psOp{}
		switch k := r.Intn(10); {
		case k < 3:
			op.dt = 0 // same instant as the previous op
		case k < 6:
			op.dt = r.Float64() * 0.05
		case k < 9:
			op.dt = r.Float64() * 1.5
		default:
			op.dt = r.Float64() * 6
		}
		if !conserving && r.Intn(150) == 0 {
			op.dt = 1e6 + r.Float64() // large clock: exercises the one-ulp guard
		}
		k := r.Intn(100)
		switch {
		case k < 40:
			op.kind = psAdd
			op.works = []float64{randWork()}
		case k < 50:
			// A same-instant burst; the near-twin lands within eps of the
			// base job, so both complete in the same pass.
			op.kind = psAdd
			base := r.ExpFloat64()
			op.works = []float64{base, base + r.Float64()*5e-13, randWork(), base}
		case k < 65:
			op.kind = psObserve
		case k < 75:
			op.kind = psRebind
			op.arg = []float64{0, 0.25, 0.5, 1, 1.7, 3}[r.Intn(6)] // 0 pauses the resource
		case conserving:
			op.kind = psObserve
		case k < 85:
			op.kind = psAddHold
			op.arg = []float64{0.3, 0.5, 1, 2.5}[r.Intn(4)]
		case k < 94:
			op.kind = psRemoveHold
			op.arg = []float64{0.3, 0.5, 1, 2.5}[r.Intn(4)]
		case k < 98:
			op.kind = psCrash
		default:
			op.kind = psReset
			op.arg = float64(1 + r.Intn(6))
		}
		ops = append(ops, op)
	}
	return ops
}

type psDone struct {
	id int
	t  float64
}

// psTrace is everything a stream observes of one resource.
type psTrace struct {
	done   []psDone  // completion order and instants
	obs    []float64 // WorkIntegral, ActiveWeight and ActiveJobs after each op
	submit float64   // total submitted work
}

// runPSOps replays ops on a fresh engine against the resource build makes,
// then drains the calendar.
func runPSOps(ops []psOp, curve psCurve, build func(*Engine, func(float64) float64) psResource) (psTrace, psResource) {
	eng := NewEngine()
	ratio := 1.0
	rebind := func(capacity float64) func(float64) float64 {
		base := curve.rate(capacity)
		return func(w float64) float64 { return ratio * base(w) }
	}
	res := build(eng, rebind(2))
	var tr psTrace
	nextID := 0
	for _, op := range ops {
		eng.Run(eng.Now() + op.dt)
		switch op.kind {
		case psAdd:
			for _, w := range op.works {
				id := nextID
				nextID++
				tr.submit += w
				res.Add(w, func() { tr.done = append(tr.done, psDone{id, eng.Now()}) })
			}
		case psAddHold:
			res.AddHold(op.arg)
		case psRemoveHold:
			res.RemoveHold(op.arg)
		case psRebind:
			res.Sync()
			ratio = op.arg
			res.Sync()
		case psObserve:
			tr.obs = append(tr.obs, res.WorkIntegral())
		case psCrash:
			res.Crash()
		case psReset:
			eng.Reset()
			ratio = 1
			res.Reset(op.arg, rebind(op.arg))
		}
		tr.obs = append(tr.obs, res.ActiveWeight(), float64(res.ActiveJobs()), float64(eng.Pending()))
	}
	// Unpause (a final zero rate would strand the jobs), then drain.
	res.Sync()
	ratio = 1
	res.Sync()
	for eng.Step() {
	}
	tr.obs = append(tr.obs, res.WorkIntegral(), eng.Now())
	return tr, res
}

func buildShared(eng *Engine, rate func(float64) float64) psResource {
	return NewSharedResource(eng, 2, rate)
}

func buildRefShared(eng *Engine, rate func(float64) float64) psResource {
	return newRefShared(eng, rate)
}

var psCurves = []struct {
	name  string
	curve psCurve
}{
	{"cpu", psCurve{}},
	{"gpu", psCurve{gpu: true, peak: 6}},
}

func TestSharedResourceMatchesReference(t *testing.T) {
	for _, c := range psCurves {
		for seed := int64(1); seed <= 40; seed++ {
			for _, conserving := range []bool{false, true} {
				ops := genPSOps(seed, 400, conserving)
				got, _ := runPSOps(ops, c.curve, buildShared)
				want, _ := runPSOps(ops, c.curve, buildRefShared)
				if len(got.done) != len(want.done) {
					t.Fatalf("%s seed %d conserving=%v: %d completions, reference %d",
						c.name, seed, conserving, len(got.done), len(want.done))
				}
				for i := range got.done {
					if got.done[i] != want.done[i] {
						t.Fatalf("%s seed %d conserving=%v: completion %d = %+v, reference %+v",
							c.name, seed, conserving, i, got.done[i], want.done[i])
					}
				}
				if len(got.obs) != len(want.obs) {
					t.Fatalf("%s seed %d conserving=%v: %d observations, reference %d",
						c.name, seed, conserving, len(got.obs), len(want.obs))
				}
				for i := range got.obs {
					if got.obs[i] != want.obs[i] {
						t.Fatalf("%s seed %d conserving=%v: observation %d = %v, reference %v",
							c.name, seed, conserving, i, got.obs[i], want.obs[i])
					}
				}
			}
		}
	}
}

// TestSharedResourceConservesWork is the work-conservation oracle: with no
// holds and no crash, every unit of submitted work is delivered exactly
// once, so the drained work integral equals the submitted total.
func TestSharedResourceConservesWork(t *testing.T) {
	for _, c := range psCurves {
		for seed := int64(1); seed <= 40; seed++ {
			tr, res := runPSOps(genPSOps(seed, 400, true), c.curve, buildShared)
			if res.ActiveJobs() != 0 {
				t.Fatalf("%s seed %d: %d jobs left after draining", c.name, seed, res.ActiveJobs())
			}
			got := res.WorkIntegral()
			if math.Abs(got-tr.submit) > 1e-9*tr.submit {
				t.Errorf("%s seed %d: work integral %v, submitted %v (rel err %.3g)",
					c.name, seed, got, tr.submit, math.Abs(got-tr.submit)/tr.submit)
			}
		}
	}
}
