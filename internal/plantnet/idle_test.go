package plantnet

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"e2clab/internal/fault"
	"e2clab/internal/rngutil"
)

// idleConfigs are the shapes TestIdleRunnerReuseAcrossConfigs interleaves
// on the package's idle Runners: replica count, network on/off, faults, a
// resilience policy, open loop, and the sharded kernel on and off over one
// model. Three shapes trace requests with different counts, so a Runner that
// reused its trace buffer would rewrite a result handed out earlier. Model
// pointers are shared, as a caller reusing options would share them.
func idleConfigs() map[string]RunOptions {
	net := testNetModel(5)
	mg := multiGatewayModel()
	sm := shardedNetModel(true)
	churn := &fault.Spec{
		GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
		ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 30, RecoverAfterSeconds: 20}},
		LinkFlaps:      []fault.Flap{{Gateway: 0, FirstAtSeconds: 25, DownSeconds: 8, PeriodSeconds: 40}},
	}
	cfgs := map[string]RunOptions{
		"closed-1rep": {Pools: Baseline, Clients: 30, Duration: 60, Seed: 3},
		"closed-2rep": {Pools: PreliminaryOptimum, Clients: 40, Replicas: 2, Duration: 60, Seed: 4, TraceRequests: 4},
		"net":         {Pools: Baseline, Clients: 20, Duration: 60, Seed: 5, Network: net, TraceRequests: 3},
		"faults":      {Pools: Baseline, Clients: 24, Replicas: 2, Duration: 90, Seed: 6, Network: mg, Faults: churn},
		"resilience": {Pools: Baseline, Clients: 40, Replicas: 3, Duration: 90, Seed: 7, Network: mg, Faults: churn,
			Resilience: retryFailoverPolicy(), TraceRequests: 5},
		"open-loop":   {Pools: Baseline, OpenLoopRate: 8, Duration: 60, Seed: 8},
		"sharded":     {Pools: Baseline, Clients: 30, Replicas: 2, Duration: 60, Seed: 9, Network: sm, Shards: 2},
		"sharded-off": {Pools: Baseline, Clients: 30, Replicas: 2, Duration: 60, Seed: 9, Network: sm},
	}
	for k, o := range cfgs {
		o.Warmup = 20     // leave post-warmup samples and traces to compare
		o.MaxParallel = 2 // exercise the parallel path's borrowed workers
		cfgs[k] = o
	}
	return cfgs
}

// idleSequence visits every shape, switching each property both ways.
var idleSequence = []string{
	"closed-1rep", "closed-2rep", "closed-1rep", "net", "closed-1rep", "faults",
	"net", "resilience", "open-loop", "sharded", "sharded-off", "sharded",
	"closed-2rep", "faults", "open-loop", "resilience", "closed-1rep",
}

const idleRepeats = 2

// freshRuns is the reference: every repeat on a brand-new Runner, with the
// run seeds derived as RunRepeated derives them.
func freshRuns(t *testing.T, opts RunOptions) []string {
	t.Helper()
	seeder := rngutil.NewSeeder(opts.Seed + 7)
	out := make([]string, idleRepeats)
	for i := range out {
		o := opts
		o.Seed = seeder.Next()
		m, err := NewRunner().Run(o)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = metricsFingerprint(m)
	}
	return out
}

// repeatedFingerprint renders every run and the pooled aggregate bit-exactly.
func repeatedFingerprint(r *Repeated) string {
	var b strings.Builder
	for _, m := range r.Runs {
		b.WriteString(metricsFingerprint(m))
	}
	fmt.Fprintf(&b, "agg=%d,%016x,%016x,%016x\n", r.UserResponseTime.N,
		math.Float64bits(r.UserResponseTime.Mean), math.Float64bits(r.UserResponseTime.StdDev),
		math.Float64bits(r.Throughput))
	return b.String()
}

// runIdleSequence runs idleSequence through the package-level RunRepeated
// and reports, with t.Errorf only (it also runs off the test goroutine), any
// run that differs from the fresh reference or any earlier result that a
// later call changed.
func runIdleSequence(t *testing.T, who string, cfgs map[string]RunOptions, want map[string][]string) {
	type kept struct {
		name string
		res  *Repeated
		fp   string
	}
	var history []kept
	for step, name := range idleSequence {
		res, err := RunRepeated(cfgs[name], idleRepeats)
		if err != nil {
			t.Errorf("%s step %d (%s): %v", who, step, name, err)
			return
		}
		for i, m := range res.Runs {
			if got := metricsFingerprint(m); got != want[name][i] {
				t.Errorf("%s step %d (%s) run %d differs from a fresh Runner:\n%s",
					who, step, name, i, firstDiff(got, want[name][i]))
			}
		}
		history = append(history, kept{name, res, repeatedFingerprint(res)})
	}
	// Results handed out earlier must not alias state the idle Runners
	// reused since.
	for step, h := range history {
		if got := repeatedFingerprint(h.res); got != h.fp {
			t.Errorf("%s step %d (%s) changed after later calls:\n%s", who, step, h.name, firstDiff(got, h.fp))
		}
	}
}

// TestIdleRunnerReuseAcrossConfigs pins the contract the idle list relies
// on: a Runner's reset is bit-complete across DIFFERENT configurations, so
// package-level RunRepeated on warm Runners matches a fresh Runner bit for
// bit whatever ran before, returned Metrics never alias pooled state, and
// concurrent callers never share a Runner.
func TestIdleRunnerReuseAcrossConfigs(t *testing.T) {
	cfgs := idleConfigs()
	want := make(map[string][]string, len(cfgs))
	for _, name := range idleSequence {
		if _, ok := want[name]; !ok {
			want[name] = freshRuns(t, cfgs[name])
		}
	}
	runIdleSequence(t, "sequential", cfgs, want)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runIdleSequence(t, fmt.Sprintf("goroutine %d", g), cfgs, want)
		}()
	}
	wg.Wait()
}

// warmRunRepeatedAllocs bounds one warm package-level RunRepeated call of
// two sequential paper-length (1380 s) repeats: the Metrics, sample slices
// and task-time map handed to the caller and the Repeated itself. That is
// 40 per call on amd64, go1.24, independent of the client, request and
// sampler-tick counts; a cold call, which builds the engine, allocates
// thousands.
const warmRunRepeatedAllocs = 60

func TestZeroAllocWarmRunRepeated(t *testing.T) {
	opts := RunOptions{Pools: Baseline, Clients: 80, Duration: 1380, Seed: 3, MaxParallel: 1}
	run := func() {
		if _, err := RunRepeated(opts, 2); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun pins GOMAXPROCS to 1, which caps the idle list at one
	// Runner. Pin it first, so the warm-up leaves exactly one Runner warm
	// for these options: the first call may drop a Runner other tests left
	// over the cap, the second warms the one that stays.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	run()
	got := testing.AllocsPerRun(5, run)
	if got > warmRunRepeatedAllocs {
		t.Errorf("warm RunRepeated: %v allocs/call, want <= %d", got, warmRunRepeatedAllocs)
	}
	t.Logf("warm RunRepeated: %v allocs/call", got)
}

// TestRequestNodeAllocs pins the cost of one request node: the node and its
// two bound continuations (step and hedgeFn) — every pipeline stage is a
// static method expression and binds nothing — and the node's size on
// 64-bit platforms.
func TestRequestNodeAllocs(t *testing.T) {
	e := &engine{}
	e.allReqs = make([]*request, 0, 1000)
	got := testing.AllocsPerRun(100, func() { e.newRequestNode() })
	if got > 3 {
		t.Errorf("newRequestNode: %v allocs/node, want <= 3", got)
	}
	size := unsafe.Sizeof(request{})
	if unsafe.Sizeof(uintptr(0)) == 8 && size > 248 {
		t.Errorf("sizeof(request) = %d B, want <= 248", size)
	}
	t.Logf("newRequestNode: %v allocs/node; sizeof(request) = %d B", got, size)
}
