package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"e2clab/internal/bo"
	"e2clab/internal/core"
	"e2clab/internal/plantnet"
	"e2clab/internal/space"
	"e2clab/internal/stats"
	"e2clab/internal/surrogate"
	"e2clab/internal/tune"
)

var epoch = time.Unix(1_700_000_000, 0)

func at(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }

func sp(from, to int) span { return span{at(from), at(to)} }

func TestOverlappingScenarioSpans(t *testing.T) {
	run := sp(0, 12)
	// Two workers: one scenario runs 0-6 ms, the other 4-10 ms.
	spans := []span{sp(0, 6), sp(4, 10)}
	if got := union(spans); got != 10*time.Millisecond {
		t.Errorf("union = %v, want 10ms (the 2 ms overlap counted once)", got)
	}
	if got := selfTime(run, spans); got != 2*time.Millisecond {
		t.Errorf("self time = %v, want 2ms", got)
	}
	f, ok := busyFrac(spans, run.dur(), 2)
	if !ok || f != 0.5 {
		t.Errorf("busy fraction = %v, %v; want 12ms of 24 worker-ms = 0.5", f, ok)
	}
	// Both workers are busy only from 4 to 6 ms; after that one is idle.
	if got := tail(run, spans, 2); got != 6*time.Millisecond {
		t.Errorf("tail = %v, want 6ms", got)
	}
	// Back-to-back spans on one worker never fill two workers.
	if got := tail(run, []span{sp(0, 5), sp(5, 9)}, 2); got != 12*time.Millisecond {
		t.Errorf("tail without overlap = %v, want the whole 12ms run", got)
	}
	// Children reaching outside the parent are clipped to it.
	if got := selfTime(sp(2, 8), []span{sp(0, 3), sp(7, 20)}); got != 4*time.Millisecond {
		t.Errorf("clipped self time = %v, want 4ms", got)
	}
}

func TestRatioWithZeroBaseIsAbsent(t *testing.T) {
	for _, num := range []float64{0, 3} {
		v, ok := ratio(num, 0)
		if ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("ratio(%v, 0) = %v, %v; want absent", num, v, ok)
		}
	}
	if v, ok := ratio(1, 4); !ok || v != 0.25 {
		t.Errorf("ratio(1, 4) = %v, %v", v, ok)
	}

	// A run with no retries, no network and no shard reports those layer
	// metrics absent, and every value stays finite.
	o := &outcome{wall: 10 * time.Millisecond, simBusy: 8 * time.Millisecond,
		tally: tally{completed: 100}, layers: map[string]float64{}}
	runs := []runStats{{out: o}}
	got := map[string]metric{}
	for _, m := range layerMetrics(runs, runs, o) {
		got[m.name] = m
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v", m.name, m.value)
		}
	}
	for _, name := range []string{"resilience.retry_success_ratio", "sim.retx_ratio",
		"plantnet.ns_per_net_delivery", "shard.speedup", "bo.ask_ms"} {
		if !got[name].absent {
			t.Errorf("%s = %v, want absent", name, got[name].value)
		}
	}
	if m := got["plantnet.ns_per_sim_req"]; m.absent || m.value != 8e6/100 {
		t.Errorf("ns_per_sim_req = %+v, want 80000", m)
	}
	if m := got["fault.failed_frac"]; m.absent || m.value != 0 {
		t.Errorf("failed_frac = %+v, want 0 over 100 completed", m)
	}
	if len(got) != len(layerUnits()) {
		t.Errorf("%d layer metrics, want %d", len(got), len(layerUnits()))
	}
}

func TestDigestIgnoresMapOrder(t *testing.T) {
	names := []string{"http", "download", "pre-process", "extract", "simsearch", "post-process"}
	forward := map[string]stats.Summary{}
	backward := map[string]stats.Summary{}
	for i, n := range names {
		forward[n] = stats.Summary{N: i, Mean: float64(i) / 3}
	}
	for i := len(names) - 1; i >= 0; i-- {
		backward[names[i]] = stats.Summary{N: i, Mean: float64(i) / 3}
	}
	sum := func(m map[string]stats.Summary) string {
		d := newDigest()
		d.add(&plantnet.Metrics{Completed: 7, TaskTimes: m})
		return d.sum()
	}
	want := sum(forward)
	for i := 0; i < 50; i++ {
		if got := sum(backward); got != want {
			t.Fatalf("digest %s differs from %s for the same map", got, want)
		}
	}
	backward["extract"] = stats.Summary{N: 3, Mean: math.Nextafter(1, 2)}
	if sum(backward) == want {
		t.Error("a one-ulp change did not change the digest")
	}
}

func TestReplayCoversEveryAsk(t *testing.T) {
	p := space.PlantNetProblem()
	cfg := bo.Config{NInitialPoints: 4, Seed: 7}
	surface := func(x []float64) float64 { return math.Abs(x[0]-50) + math.Abs(x[3]-6) }
	factory, err := surrogate.ByName("ET")
	if err != nil {
		t.Fatal(err)
	}
	newOpt := func() *bo.Optimizer {
		opt, err := bo.New(p.Space, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	const samples = 9
	ts := &timedSearch{opt: newOpt(), space: p.Space, factory: factory, seed: 1,
		cands: [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.9, 0.8, 0.7, 0.6}}}
	a, err := tune.Run(tune.RunConfig{NumSamples: samples, MaxConcurrent: 1}, ts,
		func(_ *tune.Context, x []float64) (float64, error) { return surface(x), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.steps) != samples || len(ts.asks) != samples || len(ts.tells) != samples {
		t.Fatalf("%d replay steps, %d asks, %d tells; want %d each", len(ts.steps), len(ts.asks), len(ts.tells), samples)
	}
	for i, st := range ts.steps {
		if st.history != i {
			t.Errorf("step %d replayed %d evaluations, want %d", i, st.history, i)
		}
	}
	// The replay must not change what the optimizer proposes.
	plain := newOpt()
	for i, tr := range a.Trials {
		x := plain.Ask()
		plain.Tell(x, surface(x))
		for j := range x {
			if x[j] != tr.Config[j] {
				t.Fatalf("trial %d proposed %v, the unwrapped optimizer %v", i, tr.Config, x)
			}
		}
	}
}

func TestObjectiveMatchesCore(t *testing.T) {
	c, err := setupListing1(3, "")
	if err != nil {
		t.Fatal(err)
	}
	w := c.(*listing1)
	var mu sync.Mutex
	var tl tally
	ours := w.objective(&mu, &tl)
	theirs := core.PlantNetObjective(w.clients, w.objSeed)
	for i, x := range [][]float64{plantnet.Baseline.Vector(), plantnet.PreliminaryOptimum.Vector()} {
		ev := &core.Evaluation{Index: i, X: x, Repeat: 2, Duration: 200, RepeatParallelism: 2}
		a, errA := ours(ev)
		b, errB := theirs(ev)
		if errA != nil || errB != nil || a != b {
			t.Errorf("evaluation %d: %v (%v), core %v (%v)", i, a, errA, b, errB)
		}
	}
	if tl.completed == 0 {
		t.Error("the objective tallied no completed requests")
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics the
// command prints in step: same names, same units, same workloads.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var printed []entry
	for _, m := range endToEnd([]runStats{{out: &outcome{wall: time.Second}}}, 1, 1) {
		printed = append(printed, entry{m.name, m.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, printed) {
		t.Errorf("end_to_end %v, the command prints %v", spec.EndToEnd, printed)
	}
	printed = nil
	for _, nu := range layerUnits() {
		printed = append(printed, entry{nu[0], nu[1]})
	}
	if !reflect.DeepEqual(spec.PerLayer, printed) {
		t.Errorf("per_layer %v, the command prints %v", spec.PerLayer, printed)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %+v, defined %q: %q", i, got, w.name, w.why)
		}
	}
}
