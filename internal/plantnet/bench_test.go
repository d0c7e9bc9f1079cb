package plantnet

import (
	"runtime"
	"testing"

	"e2clab/internal/netem"
)

// BenchmarkEngineSimulation measures the cost of one 200-second engine
// experiment at the 80-request workload (the unit of every optimization
// evaluation).
func BenchmarkEngineSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(RunOptions{Pools: Baseline, Clients: 80, Duration: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSimulationPooled is the same experiment on a reused
// Runner — the RunRepeated steady state, where the per-run setup
// (engine arena, replicas, reservoir, request nodes) is already paid.
func BenchmarkEngineSimulationPooled(b *testing.B) {
	rn := NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Run(RunOptions{Pools: Baseline, Clients: 80, Duration: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSimulationHeavy is the 160-client saturated case.
func BenchmarkEngineSimulationHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(RunOptions{Pools: PreliminaryOptimum, Clients: 160, Duration: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedScaleOpts is the BenchmarkShardedScale configuration: a 10k-gateway
// edge tier (64 classes x 160 gateways) on packetized lossy uplinks with no
// shared backhaul, so the domain shards carry the packet-level event load.
// NetworkRTT is set to a remote-edge 160 ms so the conservative windows
// (RTT/2) are wide enough to amortize the barrier — the regime the sharded
// kernel is for (the README's "when shards help"). Whether it pays is
// measured, not assumed: see BenchmarkShardedScale.
func shardedScaleOpts(shards int, seed int64) RunOptions {
	nm := &NetworkModel{
		UploadBytes:   80e3,
		ResponseBytes: 8e3,
		Packet:        true,
		MTUBytes:      1500,
	}
	for c := 0; c < 64; c++ {
		nm.Classes = append(nm.Classes, NetworkClass{
			Gateways: 160,
			Up:       netem.LinkSpec{DelaySec: 0.010 + float64(c%8)*0.005, RateBps: 8e6, LossPct: 0.5},
			Down:     netem.LinkSpec{DelaySec: 0.010 + float64(c%8)*0.005, RateBps: 10e6},
		})
	}
	cal := DefaultCalibration()
	cal.NetworkRTT = 0.16
	return RunOptions{
		Pools:    Baseline,
		Clients:  10240,
		Network:  nm,
		Replicas: 4,
		Duration: 60,
		Warmup:   20,
		Seed:     seed,
		Shards:   shards,
		Cal:      cal,
	}
}

// BenchmarkShardedScale compares the sequential kernel against the
// domain-sharded kernel at 10,240 gateways. Both subbenches pin GOMAXPROCS=4
// so the ratio measures the conservative-window parallelism, not core count
// drift. What is recorded: BENCH_9ea8110-dirty.json, one 3-iteration run
// on a 2-vCPU host, reads shards=1 193 ms/op and shards=4 177 ms/op; a
// second run on the same host and code read 118 and 150 ms/op. The
// run-to-run spread exceeds the difference, so neither parity nor a
// speedup is established, and no run on 4 or more cores exists.
func BenchmarkShardedScale(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{{"shards=1", 1}, {"shards=4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
			rn := NewRunner()
			// One options value across iterations: the sharded state cache
			// is keyed by the NetworkModel pointer, so rebuilding the spec
			// every iteration would re-derive the per-domain models and
			// measure setup, not simulation.
			opts := shardedScaleOpts(bc.shards, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i + 1)
				if _, err := rn.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
