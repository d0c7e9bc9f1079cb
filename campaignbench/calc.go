package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the two middle values for an
// even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or ok=false when the base is zero: a ratio over
// nothing is absent, never NaN or Inf.
func ratio(num, den float64) (v float64, ok bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// span is one timed interval on the host clock.
type span struct {
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// union returns the total time covered by at least one of the spans, so
// overlapping spans are counted once.
func union(spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur span
	for i, sp := range s {
		if i == 0 || sp.start.After(cur.end) {
			total += cur.dur()
			cur = sp
			continue
		}
		if sp.end.After(cur.end) {
			cur.end = sp.end
		}
	}
	if len(s) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is the part of parent not covered by any child span: the time a
// layer spends in its own code rather than in the layers it calls.
func selfTime(parent span, children []span) time.Duration {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	return parent.dur() - union(clipped)
}

// busyFrac is the summed duration of the spans over the worker time
// available in wall: the share of `workers` that was doing work. Unlike
// union it counts overlapping spans once per worker.
func busyFrac(spans []span, wall time.Duration, workers int) (float64, bool) {
	var sum time.Duration
	for _, s := range spans {
		sum += s.dur()
	}
	return ratio(float64(sum), float64(wall)*float64(workers))
}

// tail is the time from the moment fewer than `workers` spans were last
// running together until end: how long the run waited on its slowest spans
// while a worker sat idle. If the spans never filled every worker, the whole
// run from its start is tail.
func tail(run span, spans []span, workers int) time.Duration {
	type edge struct {
		at    time.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.start, +1}, edge{s.end, -1})
	}
	// Ends sort before starts at the same instant, so back-to-back spans do
	// not count as overlapping.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at.Equal(edges[j].at) {
			return edges[i].delta < edges[j].delta
		}
		return edges[i].at.Before(edges[j].at)
	})
	idleFrom := run.start
	running := 0
	for _, e := range edges {
		if running == workers && e.delta < 0 {
			idleFrom = e.at
		}
		running += e.delta
	}
	return run.end.Sub(idleFrom)
}

// digest hashes every exported field of the values it is given, following
// pointers, slices and maps. Floats are hashed by their bits, so two digests
// match only when every simulated statistic is bit-identical. Map entries are
// hashed in sorted key order, so the digest does not depend on Go's map
// iteration order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

func (d *digest) add(v any) { d.value(reflect.ValueOf(v)) }

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		d.str("<nil>")
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.String:
		d.str(v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			d.str("<nil>")
			return
		}
		if err, ok := v.Interface().(error); ok {
			d.str(err.Error())
			return
		}
		d.value(v.Elem())
	case reflect.Slice, reflect.Array:
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i].Interface()) < fmt.Sprint(keys[j].Interface())
		})
		d.u64(uint64(len(keys)))
		for _, k := range keys {
			d.value(k)
			d.value(v.MapIndex(k))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				d.str(f.Name)
				d.value(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}
