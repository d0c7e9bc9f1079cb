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
// drift (the coordinator still caps its workers at the CPU count). The
// sharded subbench also reports the coordinator's exact windows/op and
// msgs/op, which do not depend on speed: 751 and 24,287 over seeds 1-3.
// What is recorded, set-up excluded: eight alternating 3-iteration runs per
// kernel on a noisy 2-vCPU host read shards=1 136 ms/op (quartiles 126-147)
// and shards=4 113 ms/op (110-115).
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
			// One untimed run builds the Runner's engines, links and
			// request nodes, so the timed iterations measure simulation.
			if _, err := rn.Run(opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var windows, msgs int64
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i + 1)
				if _, err := rn.Run(opts); err != nil {
					b.Fatal(err)
				}
				if rn.sh != nil {
					windows += rn.sh.coord.Windows()
					msgs += rn.sh.coord.Routed()
				}
			}
			if rn.sh != nil {
				b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			}
		})
	}
}
