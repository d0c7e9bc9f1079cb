package plantnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/netem"
	"e2clab/internal/resilience"
)

// metricsFingerprint renders every field of Metrics bit-exactly by
// reflection: floats as raw IEEE-754 bits (so NaN samples compare too),
// slices element by element, maps in sorted key order, and nested structs
// (Sample, RequestTrace, stats.Summary) field by field. A field added to
// any of them is covered without editing this function.
func metricsFingerprint(m *Metrics) string {
	var b strings.Builder
	fingerprintValue(&b, "Metrics", reflect.ValueOf(m).Elem())
	return b.String()
}

func fingerprintValue(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fingerprintValue(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			fingerprintValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprintf(b, "%s.len=%d\n", path, v.Len())
		for _, k := range keys {
			fingerprintValue(b, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", path)
			return
		}
		fingerprintValue(b, path, v.Elem())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%016x\n", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
	case reflect.Bool, reflect.String:
		fmt.Fprintf(b, "%s=%q\n", path, fmt.Sprint(v))
	default:
		panic(fmt.Sprintf("metricsFingerprint: unsupported kind %s at %s", v.Kind(), path))
	}
}

// shardedNetModel is a small heterogeneous two-class topology with a shared
// backhaul, used by the fixed sharded tests.
func shardedNetModel(packet bool) *NetworkModel {
	return &NetworkModel{
		UploadBytes:   100e3,
		ResponseBytes: 10e3,
		Classes: []NetworkClass{
			{Gateways: 3, Up: netem.LinkSpec{DelaySec: 0.010, RateBps: 20e6}, Down: netem.LinkSpec{DelaySec: 0.010, RateBps: 20e6}},
			{Gateways: 2, Up: netem.LinkSpec{DelaySec: 0.030, RateBps: 6e6, LossPct: 1}, Down: netem.LinkSpec{DelaySec: 0.030, RateBps: 8e6}},
		},
		BackhaulUp:   []netem.LinkSpec{{DelaySec: 0.020, RateBps: 200e6}},
		BackhaulDown: []netem.LinkSpec{{DelaySec: 0.020, RateBps: 200e6}},
		Packet:       packet,
		MTUBytes:     1500,
	}
}

// TestShardedShardCountInvariance is the tentpole determinism contract: a
// faulted, policied, simulated-network run must be bit-identical for every
// Shards >= 2 — the shard count is only the worker count.
func TestShardedShardCountInvariance(t *testing.T) {
	for _, packet := range []bool{false, true} {
		name := "payload"
		if packet {
			name = "packet"
		}
		t.Run(name, func(t *testing.T) {
			opts := RunOptions{
				Pools:    Baseline,
				Clients:  40,
				Network:  shardedNetModel(packet),
				Replicas: 2,
				Duration: 120,
				Warmup:   30,
				Seed:     17,
				Shards:   2,
				Faults: &fault.Spec{
					GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 6},
					ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 50, RecoverAfterSeconds: 25}},
				},
				Resilience: &resilience.Policy{
					TimeoutSeconds: 12,
					Retry:          &resilience.Retry{Max: 2},
					Hedge:          &resilience.Hedge{DelaySeconds: 6},
					Failover:       true,
					Shed:           &resilience.Shed{QueueDepth: 200},
				},
				TraceRequests: 8,
			}
			ref, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Completed == 0 {
				t.Fatal("sharded reference run completed nothing")
			}
			want := metricsFingerprint(ref)
			for _, shards := range []int{3, 4, 8} {
				o := opts
				o.Shards = shards
				m, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				if got := metricsFingerprint(m); got != want {
					t.Errorf("Shards=%d diverged from Shards=2:\n%s", shards, firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff returns the first differing line of two fingerprints.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %s want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}

// TestShardedRandomizedInvariance fuzzes scenario shapes — class layout,
// link specs, transport, workload mode, faults, policies — and checks the
// full-metrics bit-identity across shard counts for each.
func TestShardedRandomizedInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < 6; c++ {
		opts := RunOptions{
			Pools:    Baseline,
			Duration: 90,
			Warmup:   30,
			Seed:     int64(1000 + c),
			Replicas: 1 + rng.Intn(3),
			Shards:   2,
		}
		nm := &NetworkModel{
			UploadBytes:   50e3 + rng.Float64()*100e3,
			ResponseBytes: 5e3 + rng.Float64()*20e3,
			Packet:        rng.Intn(2) == 0,
			MTUBytes:      1500,
		}
		nc := 2 + rng.Intn(3)
		for k := 0; k < nc; k++ {
			nm.Classes = append(nm.Classes, NetworkClass{
				Gateways: 1 + rng.Intn(3),
				Up:       netem.LinkSpec{DelaySec: 0.005 + rng.Float64()*0.03, RateBps: 5e6 + rng.Float64()*20e6, LossPct: rng.Float64()},
				Down:     netem.LinkSpec{DelaySec: 0.005 + rng.Float64()*0.03, RateBps: 5e6 + rng.Float64()*20e6},
			})
		}
		if rng.Intn(2) == 0 {
			nm.BackhaulUp = []netem.LinkSpec{{DelaySec: 0.015, RateBps: 100e6}}
			nm.BackhaulDown = []netem.LinkSpec{{DelaySec: 0.015, RateBps: 100e6}}
		}
		opts.Network = nm
		if rng.Intn(2) == 0 {
			opts.Clients = 20 + rng.Intn(30)
		} else {
			opts.OpenLoopRate = 5 + rng.Float64()*10
		}
		if rng.Intn(2) == 0 {
			opts.Faults = &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: 30, MeanDownSeconds: 5}}
			if opts.Replicas > 1 {
				opts.Faults.ReplicaCrashes = []fault.Crash{{Replica: 0, AtSeconds: 45, RecoverAfterSeconds: 20}}
			}
		}
		if rng.Intn(2) == 0 {
			opts.Resilience = &resilience.Policy{TimeoutSeconds: 15, Retry: &resilience.Retry{Max: 1}, Failover: true}
			if rng.Intn(2) == 0 {
				opts.Resilience.Hedge = &resilience.Hedge{Quantile: 0.95, DelaySeconds: 8}
			}
		}
		name := fmt.Sprintf("case%d", c)
		t.Run(name, func(t *testing.T) {
			ref, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := metricsFingerprint(ref)
			for _, shards := range []int{4, 8} {
				o := opts
				o.Shards = shards
				m, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				if got := metricsFingerprint(m); got != want {
					t.Errorf("Shards=%d diverged from Shards=2:\n%s", shards, firstDiff(got, want))
				}
			}
		})
	}
}

// TestShardedRunnerReuseBitIdentical: a pooled Runner's sharded run is
// bit-identical to a fresh Runner's, including after interleaving a
// different experiment on the same Runner.
func TestShardedRunnerReuseBitIdentical(t *testing.T) {
	opts := RunOptions{
		Pools: Baseline, Clients: 30, Network: shardedNetModel(true),
		Replicas: 2, Duration: 90, Warmup: 30, Seed: 5, Shards: 4,
		Resilience: &resilience.Policy{TimeoutSeconds: 10, Retry: &resilience.Retry{Max: 1}},
	}
	fresh, err := NewRunner().Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := metricsFingerprint(fresh)
	r := NewRunner()
	for rep := 0; rep < 2; rep++ {
		m, err := r.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := metricsFingerprint(m); got != want {
			t.Errorf("pooled run %d diverged from fresh run:\n%s", rep, firstDiff(got, want))
		}
		// Interleave a sequential run (different mode entirely) to prove
		// the reset discipline covers role state.
		if _, err := r.Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 40, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedVsSequentialThroughput: the sharded family is a different
// deterministic family, but it simulates the same physical system — under
// a closed-loop load its throughput and completion count must land within
// a few percent of the sequential kernel's.
func TestShardedVsSequentialThroughput(t *testing.T) {
	base := RunOptions{
		Pools: Baseline, Clients: 40, Network: shardedNetModel(false),
		Replicas: 2, Duration: 150, Warmup: 30, Seed: 9,
	}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	shardedOpts := base
	shardedOpts.Shards = 4
	shd, err := Run(shardedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Completed == 0 || shd.Completed == 0 {
		t.Fatalf("empty runs: seq=%d sharded=%d", seq.Completed, shd.Completed)
	}
	rel := math.Abs(float64(shd.Completed-seq.Completed)) / float64(seq.Completed)
	if rel > 0.05 {
		t.Errorf("sharded completions %d deviate %.1f%% from sequential %d", shd.Completed, 100*rel, seq.Completed)
	}
	relResp := math.Abs(shd.UserResponseTime.Mean-seq.UserResponseTime.Mean) / seq.UserResponseTime.Mean
	if relResp > 0.10 {
		t.Errorf("sharded mean response %.4f deviates %.1f%% from sequential %.4f",
			shd.UserResponseTime.Mean, 100*relResp, seq.UserResponseTime.Mean)
	}
}

// shardedGoldenOpts is the pinned configuration for the sharded golden.
func shardedGoldenOpts() RunOptions {
	return RunOptions{
		Pools: Baseline, Clients: 50, Network: shardedNetModel(true),
		Replicas: 2, Duration: 180, Warmup: 60, Seed: 42, Shards: 4,
		Faults:     &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: 60, MeanDownSeconds: 8}},
		Resilience: &resilience.Policy{TimeoutSeconds: 12, Retry: &resilience.Retry{Max: 2}, Failover: true},
	}
}

// TestShardedValidation: Shards >= 2 without a simulated network is an
// error; Shards <= 1 stays the sequential kernel bit-for-bit.
func TestShardedValidation(t *testing.T) {
	if _, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 30, Shards: 2}); err == nil {
		t.Error("Shards=2 without Network should fail")
	}
	a, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 60, Seed: 4, Network: shardedNetModel(false), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 60, Seed: 4, Network: shardedNetModel(false)})
	if err != nil {
		t.Fatal(err)
	}
	if metricsFingerprint(a) != metricsFingerprint(b) {
		t.Error("Shards=1 must be bit-identical to the sequential kernel")
	}
}

// TestShardedGoldenBitIdentical pins the sharded family's outputs for a
// fixed faulted + policied configuration. The sharded kernel is a distinct
// deterministic family from the sequential one (its own seed derivation per
// domain), so it carries its own golden; any drift here is a determinism
// regression in the shard protocol, the merge, or the seeding.
func TestShardedGoldenBitIdentical(t *testing.T) {
	m, err := Run(shardedGoldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	exact := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (bits %016x), want %v (bits %016x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if m.Completed != 4859 {
		t.Errorf("Completed = %d, want 4859", m.Completed)
	}
	exact("UserResponseTime.Mean", m.UserResponseTime.Mean, 1.8144704770432827)
	exact("RespP50", m.RespP50, 1.7491267395591592)
	exact("RespP95", m.RespP95, 2.3554478926149756)
	exact("RespP99", m.RespP99, 2.7600981516999465)
	exact("Throughput", m.Throughput, 27.51818181818182)
	exact("Goodput", m.Goodput, 27.51818181818182)
	exact("CPUUtil.Mean", m.CPUUtil.Mean, 0.5871791636614585)
	exact("EnergyPerRequestJ", m.EnergyPerRequestJ, 16.472211519234506)
	if m.NetDelivered != 19544 {
		t.Errorf("NetDelivered = %d, want 19544", m.NetDelivered)
	}
	if m.Rerouted != 544 {
		t.Errorf("Rerouted = %d, want 544", m.Rerouted)
	}
}

// TestShardedSteadyStateNoWindowLeak: a warm sharded Runner's per-run
// allocations must not scale with the number of lookahead windows — a 10x
// longer run (same tick count, so identical setup/merge work) may not
// allocate meaningfully more.
func TestShardedSteadyStateNoWindowLeak(t *testing.T) {
	cal := DefaultCalibration()
	cal.NetworkRTT = 0.2 // wide windows keep the long run fast
	mk := func(duration, interval float64) RunOptions {
		return RunOptions{
			Pools: Baseline, Clients: 20, Network: shardedNetModel(true),
			Replicas: 2, Duration: duration, Warmup: interval, SampleInterval: interval,
			Seed: 21, Shards: 2, Cal: cal,
		}
	}
	r := NewRunner()
	for w := 0; w < 2; w++ { // warm freelists, mailboxes, row buffers
		if _, err := r.Run(mk(400, 50)); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(opts RunOptions) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := r.Run(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(mk(40, 5))  // 200 windows, 8 ticks
	long := measure(mk(400, 50)) // 2000 windows, 8 ticks
	if long > short*1.5+256 {
		t.Errorf("window loop leaks allocations: short-run=%v long-run=%v", short, long)
	}
}

// TestShardedWindowCounters pins the coordinator's exact work counters for
// the sharded golden configuration at two shard counts: however the window
// loop is scheduled, it must run the same windows and route the same
// messages.
func TestShardedWindowCounters(t *testing.T) {
	for _, shards := range []int{2, 4} {
		opts := shardedGoldenOpts()
		opts.Shards = shards
		r := NewRunner()
		if _, err := r.Run(opts); err != nil {
			t.Fatal(err)
		}
		if w, m := r.sh.coord.Windows(), r.sh.coord.Routed(); w != 90001 || m != 9763 {
			t.Errorf("Shards=%d: Windows()=%d Routed()=%d, want 90001 and 9763", shards, w, m)
		}
	}
}

// TestShardedConcurrentRunnersBitIdentical runs two sharded experiments on
// separate Runners at once on two procs, so their window loops
// oversubscribe the process; both must finish bit-identical to the same
// runs made one at a time.
func TestShardedConcurrentRunnersBitIdentical(t *testing.T) {
	mk := func(seed int64) RunOptions {
		return RunOptions{
			Pools: Baseline, Clients: 30, Network: shardedNetModel(true),
			Replicas: 2, Duration: 90, Warmup: 30, Seed: seed, Shards: 2,
		}
	}
	var want [2]string
	for i := range want {
		m, err := NewRunner().Run(mk(int64(31 + i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = metricsFingerprint(m)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var got [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewRunner().Run(mk(int64(31 + i)))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = metricsFingerprint(m)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent run %d diverged from its serial run:\n%s", i, firstDiff(got[i], want[i]))
		}
	}
}
