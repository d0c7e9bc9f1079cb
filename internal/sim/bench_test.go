package sim

import "testing"

// Every benchmark here reports events/op: the calendar events fired per
// operation, counted by Engine.Fired. It is exact and machine-independent,
// so it tells a change that does less work from one that does the same
// work faster.

// reportEvents reports the events e fired since fired0 per benchmark op.
func reportEvents(b *testing.B, e *Engine, fired0 int64) {
	b.ReportMetric(float64(e.Fired()-fired0)/float64(b.N), "events/op")
}

// BenchmarkEventThroughput measures raw calendar throughput: schedule and
// fire chained events.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ResetTimer()
	for e.Step() {
	}
	if n < b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
	reportEvents(b, e, 0)
}

// BenchmarkProcessorSharing measures the PS resource with a steady
// population of jobs arriving and completing.
func BenchmarkProcessorSharing(b *testing.B) {
	e := NewEngine()
	cpu := NewCPU(e, 8)
	done := 0
	var spawn func()
	spawn = func() {
		cpu.Add(1, func() {
			done++
			if done < b.N {
				spawn()
			}
		})
	}
	for i := 0; i < 16; i++ {
		spawn()
	}
	b.ResetTimer()
	for done < b.N && e.Step() {
	}
	reportEvents(b, e, 0)
}

// BenchmarkPoolGrantRelease measures pool queue churn.
func BenchmarkPoolGrantRelease(b *testing.B) {
	e := NewEngine()
	p := NewPool(e, "x", 4)
	done := 0
	var spawn func()
	spawn = func() {
		p.Request(func() {
			e.Schedule(0.001, func() {
				p.Release()
				done++
				if done < b.N {
					spawn()
				}
			})
		})
	}
	for i := 0; i < 8; i++ {
		spawn()
	}
	b.ResetTimer()
	for done < b.N && e.Step() {
	}
	reportEvents(b, e, 0)
}

// frontTimers is the number of self-rearming timers the same-instant and
// reschedule benchmarks keep in the front heap, so those paths are priced
// against a populated heap rather than an empty one.
const frontTimers = 16

// frontStep spaces the timers: all of them re-arm within one calendar
// bucket most of the time.
const frontStep = 1e-4

// BenchmarkZeroDelayFanout measures zero-delay events — the pool grants
// and processor-sharing completions of the engine model — scheduled from
// callbacks while the front heap holds frontTimers later events. One op is
// one timer firing plus the four Schedule(0) children it fans out.
func BenchmarkZeroDelayFanout(b *testing.B) {
	e := NewEngine()
	ops := 0
	leaf := func() {}
	var tick func()
	tick = func() {
		ops++
		for i := 0; i < 4; i++ {
			e.Schedule(0, leaf)
		}
		e.Schedule(frontTimers*frontStep, tick)
	}
	for i := 0; i < frontTimers; i++ {
		e.Schedule(float64(i)*frontStep, tick)
	}
	e.Run(1) // warm the arena and tier capacities
	ops = 0
	fired0 := e.Fired()
	b.ResetTimer()
	for ops < b.N && e.Step() {
	}
	reportEvents(b, e, fired0)
}

// BenchmarkRescheduleChurn measures Reschedule of events already in the
// front heap, the pattern of a SharedResource moving its next completion on
// every arrival. One op is one timer firing: it re-arms itself and makes
// eight reschedules of pending timers to new times inside the current
// bucket.
func BenchmarkRescheduleChurn(b *testing.B) {
	e := NewEngine()
	var evs [frontTimers]Event
	ticks := make([]func(), frontTimers)
	ops := 0
	lcg := uint32(1)
	for i := range ticks {
		ticks[i] = func() {
			ops++
			evs[i] = e.Schedule(frontTimers*frontStep, ticks[i])
			for k := 0; k < 8; k++ {
				lcg = lcg*1664525 + 1013904223
				j := int(lcg>>16) % frontTimers
				e.Reschedule(evs[j], e.Now()+float64(lcg%frontTimers+1)*frontStep)
			}
		}
	}
	for i := range ticks {
		evs[i] = e.Schedule(float64(i)*frontStep, ticks[i])
	}
	e.Run(1) // warm the arena and tier capacities
	ops = 0
	fired0 := e.Fired()
	b.ResetTimer()
	for ops < b.N && e.Step() {
	}
	reportEvents(b, e, fired0)
}
