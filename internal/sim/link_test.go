package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestLinkNoContentionMatchesClosedForm: a single transfer on an idle link
// takes exactly serialization + propagation (the netem.TransferSeconds
// figure at zero loss).
func TestLinkNoContentionMatchesClosedForm(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0.020, 1e8, 0, rand.New(rand.NewSource(1))) // 20 ms, 100 Mbps
	var done float64 = -1
	l.Transfer(1.2e6, func() { done = e.Now() })
	e.Run(1000)
	want := 0.020 + 1.2e6*8/1e8
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("delivery at %v, want %v", done, want)
	}
	if l.Delivered() != 1 || l.Retransmits() != 0 {
		t.Errorf("delivered=%d retransmits=%d", l.Delivered(), l.Retransmits())
	}

	// Unlimited rate: pure propagation.
	l2 := NewLink(e, 0.005, 0, 0, rand.New(rand.NewSource(1)))
	start := e.Now()
	done = -1
	l2.Transfer(5e4, func() { done = e.Now() })
	e.Run(e.Now() + 10)
	if math.Abs((done-start)-0.005) > 1e-9 {
		t.Errorf("unlimited-rate delivery took %v, want 0.005", done-start)
	}
}

// TestLinkBandwidthSharing: two simultaneous transfers share the pipe, so
// both finish in twice the solo serialization time (plus delay).
func TestLinkBandwidthSharing(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0, 8e6, 0, rand.New(rand.NewSource(1))) // 8 Mbps, no delay
	var t1, t2 float64
	l.Transfer(1e6, func() { t1 = e.Now() }) // 1 MB = 8e6 bits -> 1 s solo
	l.Transfer(1e6, func() { t2 = e.Now() })
	e.Run(100)
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
		t.Errorf("shared-pipe completions at %v and %v, want 2 s (processor sharing)", t1, t2)
	}
}

// TestLinkQueueingBacklog: a burst of transfers on a slow uplink backs up —
// the k-th completes after ~k serialization times, which the analytical
// model (every request sees the full rate) cannot produce.
func TestLinkQueueingBacklog(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0, 8e6, 0, rand.New(rand.NewSource(1)))
	const n = 8
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		l.Transfer(1e6, func() { times = append(times, e.Now()) })
	}
	e.Run(1000)
	if len(times) != n {
		t.Fatalf("delivered %d of %d", len(times), n)
	}
	// Under processor sharing all n finish together at n * solo time.
	if math.Abs(times[n-1]-n) > 1e-9 {
		t.Errorf("last delivery at %v, want %v", times[n-1], float64(n))
	}
}

// TestLinkLossRetransmission: mean delivery time over many transfers on a
// lossy link approaches (serialize + delay) / (1 - p).
func TestLinkLossRetransmission(t *testing.T) {
	e := NewEngine()
	const loss = 25.0
	l := NewLink(e, 0.010, 1e8, loss, rand.New(rand.NewSource(7)))
	attempt := 0.010 + 1e5*8/1e8
	want := attempt / (1 - loss/100)
	const n = 4000
	var sum float64
	var count int
	var launch func()
	start := 0.0
	launch = func() {
		start = e.Now()
		l.Transfer(1e5, func() {
			sum += e.Now() - start
			count++
			if count < n {
				launch()
			}
		})
	}
	launch()
	e.Run(1e9)
	if count != n {
		t.Fatalf("delivered %d of %d", count, n)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean lossy delivery %v, want %v (±5%%)", got, want)
	}
	if l.Retransmits() == 0 {
		t.Error("no retransmissions recorded at 25% loss")
	}
}

// TestLinkFullyLossyIsBlackHole: loss >= 100% never delivers and never
// schedules (the analytical +Inf path).
func TestLinkFullyLossyIsBlackHole(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0.001, 1e9, 100, rand.New(rand.NewSource(1)))
	fired := false
	l.Transfer(1e6, func() { fired = true })
	if e.Pending() != 0 {
		t.Errorf("black-hole transfer scheduled %d events", e.Pending())
	}
	e.Run(100)
	if fired {
		t.Error("fully lossy link delivered a payload")
	}
	if l.Blackholed() != 1 {
		t.Errorf("Blackholed = %d, want 1", l.Blackholed())
	}
}

// TestLinkResetRepeatsBitIdentical: Engine.Reset + Link.Reset + an RNG
// re-seed reproduce a run's delivery times exactly — the contract the
// pooled plantnet Runner relies on.
func TestLinkResetRepeatsBitIdentical(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(3))
	l := NewLink(e, 0.002, 2e7, 10, rng)
	run := func() []float64 {
		var times []float64
		var launch func()
		launch = func() {
			l.Transfer(2e5, func() {
				times = append(times, e.Now())
				if len(times) < 50 {
					launch()
				}
			})
		}
		launch()
		e.Run(1e9)
		return times
	}
	first := run()
	e.Reset()
	l.Reset()
	rng.Seed(3)
	second := run()
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("delivery %d differs after reset: %v vs %v", i, first[i], second[i])
		}
	}
	if l.Delivered() != 50 {
		t.Errorf("post-reset Delivered = %d, want 50 (stats must reset)", l.Delivered())
	}
}

// TestSharedResourceProgressAtLargeClock: completion events keep making
// progress when the clock is so large that the residual work left by float
// subtraction is below one ulp of the clock (regression: the reschedule
// loop used to re-fire the same instant forever).
func TestSharedResourceProgressAtLargeClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(1e6, nopFn)
	e.Run(1e6) // park the clock at 10^6 s
	pipe := NewSharedResource(e, 1, func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		return 1
	})
	done := 0
	for i := 0; i < 16; i++ {
		pipe.Add(0.08, func() { done++ })
	}
	e.Run(e.Now() + 100)
	if done != 16 {
		t.Fatalf("completed %d of 16 jobs at large clock", done)
	}
}

// TestEngineResetFreshEquivalence: a reset engine fires a schedule exactly
// like a fresh one (same times, same order).
func TestEngineResetFreshEquivalence(t *testing.T) {
	drive := func(e *Engine) []float64 {
		var fired []float64
		for i := 0; i < 200; i++ {
			d := float64(i%37) * 0.21
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Schedule(30, func() { fired = append(fired, e.Now()) }) // overflow tier
		e.Run(1e6)
		return fired
	}
	used := NewEngine()
	drive(used) // dirty it
	used.Reset()
	got := drive(used)
	want := drive(NewEngine())
	if len(got) != len(want) {
		t.Fatalf("event counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("firing %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	if used.Now() != NewEngine().Now()+1e6 && used.Now() != 1e6 {
		t.Errorf("clock after reset run = %v", used.Now())
	}
}

// TestSharedResourceAndPoolReset: resources on a reset engine behave like
// fresh ones.
func TestSharedResourceAndPoolReset(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 2)
	p := NewPool(e, "x", 2)
	for i := 0; i < 8; i++ {
		cpu.Add(1, func() {})
		p.Request(func() { e.Schedule(0.5, p.Release) })
	}
	e.Run(2) // leave work in flight
	e.Reset()
	cores := 3.0
	cpu.Reset(cores, func(w float64) float64 { return math.Min(w, cores) })
	p.Reset(4)
	if cpu.ActiveJobs() != 0 || cpu.ActiveWeight() != 0 || cpu.WorkIntegral() != 0 {
		t.Errorf("cpu not reset: jobs=%d weight=%v work=%v", cpu.ActiveJobs(), cpu.ActiveWeight(), cpu.WorkIntegral())
	}
	if p.Busy() != 0 || p.Queued() != 0 || p.Grants() != 0 || p.Size() != 4 {
		t.Errorf("pool not reset: %+v", p)
	}
	done := 0
	cpu.Add(1.5, func() { done++ })
	p.Request(func() { done++ })
	e.Run(10)
	if done != 2 {
		t.Errorf("post-reset resources not functional: done=%d", done)
	}
}
