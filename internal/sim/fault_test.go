package sim

import (
	"math"
	"math/rand"
	"testing"
)

// Crash/reconfiguration primitives behind the fault-injection layer:
// SharedResource.Crash, Pool.Crash, Link.Reconfigure/Restore (flap
// stall/drain), and the packetized transport.

func TestSharedResourceCrash(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	fired := 0
	done := func() { fired++ }
	cpu.Add(10, done)
	cpu.Add(10, done)
	cpu.AddHold(2)
	e.Run(1)
	w0 := cpu.WorkIntegral()
	if w0 <= 0 {
		t.Fatal("expected work accrued before the crash")
	}
	cpu.Crash()
	if got := cpu.ActiveWeight(); got != 0 {
		t.Errorf("ActiveWeight after crash = %v, want 0 (jobs and holds cleared)", got)
	}
	e.Run(100)
	if fired != 0 {
		t.Errorf("%d completions fired after crash, want 0", fired)
	}
	if got := cpu.WorkIntegral(); got < w0 {
		t.Errorf("work integral shrank across crash: %v < %v", got, w0)
	}
	// The resource keeps working after a crash.
	cpu.Add(0.5, done)
	e.Run(200)
	if fired != 1 {
		t.Errorf("post-crash job completions = %d, want 1", fired)
	}
}

func TestPoolCrash(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "x", 1)
	granted := 0
	p.Request(func() { granted++ })
	p.Request(func() { granted++ }) // queued behind the held slot
	e.Run(1)
	if granted != 1 {
		t.Fatalf("granted = %d before crash, want 1", granted)
	}
	p.Crash()
	if p.Busy() != 0 || p.Queued() != 0 {
		t.Errorf("after crash busy=%d queued=%d, want 0/0", p.Busy(), p.Queued())
	}
	e.Run(10)
	if granted != 1 {
		t.Errorf("queued waiter ran after crash: granted = %d", granted)
	}
	if p.BusyIntegral() <= 0 {
		t.Error("busy integral lost across crash")
	}
	// The pool keeps granting after a crash.
	p.Request(func() { granted++ })
	e.Run(20)
	if granted != 2 {
		t.Errorf("post-crash grants = %d, want 2", granted)
	}
}

func TestLinkReconfigureRateMidTransfer(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0, 1e6, 0, rand.New(rand.NewSource(1)))
	var doneAt float64
	l.Transfer(1e6, func() { doneAt = e.Now() }) // 8 s solo serialization
	e.At(2, func() { l.Reconfigure(-1, 4e6, -1) })
	e.Run(100)
	// 2 s at the built rate leaves 6 s of solo work, served 4x faster.
	if math.Abs(doneAt-3.5) > 1e-6 {
		t.Errorf("delivery at %v, want 3.5 (rate change applies to in-flight work)", doneAt)
	}
}

func TestLinkFlapStallsAndDrains(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0.01, 1e8, 0, rand.New(rand.NewSource(1)))
	var doneAt []float64
	done := func() { doneAt = append(doneAt, e.Now()) }
	// One payload mid-flight when the link goes down, one submitted while
	// it is down.
	e.At(0.995, func() { l.Transfer(1e5, done) })
	e.At(1.0, func() { l.Reconfigure(-1, 0, 100) })
	e.At(1.5, func() { l.Transfer(1e5, done) })
	e.At(5.0, func() { l.Restore() })
	e.Run(100)
	if len(doneAt) != 2 {
		t.Fatalf("delivered %d payloads, want 2", len(doneAt))
	}
	for _, at := range doneAt {
		if at < 5 {
			t.Errorf("delivery at %v while the link was down", at)
		}
	}
	if l.Stalled() != 0 {
		t.Errorf("%d payloads still stalled after restore", l.Stalled())
	}
	if l.Blackholed() != 0 {
		t.Errorf("managed down link blackholed %d transfers, want 0 (they park)", l.Blackholed())
	}
}

func TestUnmanagedFullyLossyLinkStillBlackholes(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0.01, 1e8, 100, rand.New(rand.NewSource(1)))
	l.Transfer(1e5, func() { t.Error("delivery on a black hole") })
	e.Run(10)
	if l.Blackholed() != 1 {
		t.Errorf("Blackholed = %d, want 1", l.Blackholed())
	}
}

func TestLinkResetRestoresReconfiguredParams(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0.01, 1e8, 0, rand.New(rand.NewSource(1)))
	l.Reconfigure(5, 1e6, 50)
	e.Reset()
	l.Reset()
	var doneAt float64
	l.Transfer(1e5, func() { doneAt = e.Now() })
	e.Run(100)
	// 1e5 bytes at the ORIGINAL 1e8 bps + 0.01 delay = 0.018 s; the
	// reconfigured delay/rate/loss must not survive the reset.
	if math.Abs(doneAt-0.018) > 1e-9 {
		t.Errorf("post-reset delivery at %v, want 0.018", doneAt)
	}
}

func TestLinkPacketMode(t *testing.T) {
	deliver := func(seed int64) (times []float64, retrans int64) {
		e := NewEngine()
		l := NewLink(e, 0.005, 1e8, 5, rand.New(rand.NewSource(seed)))
		l.EnablePacket(1500)
		done := func() { times = append(times, e.Now()) }
		for i := 0; i < 10; i++ {
			l.Transfer(1.2e6, done)
		}
		e.Run(1e6)
		if l.Delivered() != 10 {
			t.Fatalf("delivered %d payloads, want 10", l.Delivered())
		}
		return times, l.Retransmits()
	}
	a, ra := deliver(7)
	b, rb := deliver(7)
	if ra == 0 {
		t.Error("lossy packet path produced no retransmissions")
	}
	if ra != rb {
		t.Errorf("retransmits differ across identical seeds: %d vs %d", ra, rb)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("delivery %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}

	// Lossless packet transport delivers everything without retransmits.
	e := NewEngine()
	l := NewLink(e, 0.005, 1e8, 0, rand.New(rand.NewSource(1)))
	l.EnablePacket(0) // default MTU
	n := 0
	l.Transfer(1.2e6, func() { n++ })
	e.Run(1e6)
	if n != 1 || l.Retransmits() != 0 {
		t.Errorf("lossless packet transfer: delivered=%d retransmits=%d", n, l.Retransmits())
	}
}

// Fault-edge matrix, kernel level: a zero-duration outage (down and
// restore at the same instant) must leave deliveries untouched; a
// reconfiguration scheduled exactly on the horizon still fires; one
// scheduled past the horizon does not.
func TestFaultEdgesAtKernelLevel(t *testing.T) {
	// Zero-duration outage: down then restore at t=1, both before the
	// payload's delivery event. The transfer must complete as if the
	// outage never happened (stall and drain at the same instant).
	e := NewEngine()
	l := NewLink(e, 0.01, 1e8, 0, rand.New(rand.NewSource(1)))
	var doneAt float64
	e.At(0.995, func() { l.Transfer(1e5, func() { doneAt = e.Now() }) })
	e.At(1.0, func() { l.Reconfigure(-1, 0, 100) })
	e.At(1.0, func() { l.Restore() })
	e.Run(100)
	want := 0.995 + 0.01 + 1e5*8/1e8
	if math.Abs(doneAt-want) > 1e-9 {
		t.Errorf("zero-duration outage delivery at %v, want %v", doneAt, want)
	}
	if l.Stalled() != 0 || l.Blackholed() != 0 {
		t.Errorf("stalled=%d blackholed=%d after zero-duration outage", l.Stalled(), l.Blackholed())
	}

	// An event at exactly the horizon fires; one past it does not.
	e2 := NewEngine()
	p := NewPool(e2, "x", 1)
	atHorizon, pastHorizon := false, false
	e2.At(10, func() { atHorizon = true; p.Crash() })
	e2.At(10.000001, func() { pastHorizon = true })
	e2.Run(10)
	if !atHorizon {
		t.Error("event at exactly the horizon did not fire")
	}
	if pastHorizon {
		t.Error("event past the horizon fired")
	}
}
