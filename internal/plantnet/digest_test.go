package plantnet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/resilience"
	"e2clab/internal/workload"
)

// digestCase is one pinned configuration of TestMetricsDigestPinned.
type digestCase struct {
	name   string
	opts   RunOptions
	digest string // sha256 of metricsFingerprint
}

// digestCases covers both deterministic families over every workload and
// mode that reaches the metrics merge: eleven sequential shapes (closed loop
// on one and two replicas, open loop, a piecewise arrival profile, the
// simulated network in payload and packet transport, a compiled fault spec,
// a verbatim fault timeline, a retry/failover policy, an adaptive hedge and
// Shards: 1) and five sharded ones (the sharded golden, open loop, a
// piecewise profile, a hedge policy and a near-idle run whose sample
// windows are mostly empty).
func digestCases() []digestCase {
	arrivals := &workload.PiecewiseRate{Phases: []workload.RatePhase{
		{Rate: 8, DurationSeconds: 60},
		{Rate: 30, DurationSeconds: 40},
		{Rate: 10, DurationSeconds: 60},
	}}
	packet := testNetModel(2)
	packet.Packet = true
	hedge := chaosOpts()
	hedge.Resilience = &resilience.Policy{Hedge: &resilience.Hedge{Quantile: 0.9}}
	retry := chaosOpts()
	retry.Resilience = retryFailoverPolicy()
	retry.TraceRequests = 6
	return []digestCase{
		{name: "seq-closed-1rep", opts: RunOptions{Pools: Baseline, Clients: 40, Duration: 150, Seed: 11, TraceRequests: 5},
			digest: "f6d4d33acfee28956d76f1ef9172685f76a5f682736c1fe07eb25361c93ad743"},
		{name: "seq-closed-2rep", opts: RunOptions{Pools: PreliminaryOptimum, Clients: 90, Replicas: 2, Duration: 150, Seed: 12, TraceRequests: 4},
			digest: "bc4a07d5e948c1c88c3957db30a762b57701848fe2a4ed207df4aac22fd0ccdb"},
		{name: "seq-open-loop", opts: RunOptions{Pools: Baseline, OpenLoopRate: 20, Duration: 150, Seed: 13},
			digest: "de0230243dc58f738acf4f77601527e79d4e448c0ebed71b9537545fba58d286"},
		{name: "seq-arrivals", opts: RunOptions{Pools: Baseline, Arrivals: arrivals, Duration: arrivals.TotalDuration(), Warmup: 20, Seed: 14, TraceRequests: 3},
			digest: "7096382160a6440962c17d7f2d6d2b1d3051154988cf31da23b763d1be919db9"},
		{name: "seq-net", opts: RunOptions{Pools: Baseline, Clients: 20, Duration: 120, Seed: 15, Network: testNetModel(2), TraceRequests: 3},
			digest: "85c612071ddf3b34d0fe8a6c268a34e71b1d23b756ca3fa9c4535423044c343a"},
		{name: "seq-packet", opts: RunOptions{Pools: Baseline, Clients: 8, Duration: 120, Seed: 16, Network: packet},
			digest: "6d36687cc160e36b789c8978df95f61c34a6899d6976de055965263201f870b6"},
		{name: "seq-faults", opts: RunOptions{Pools: Baseline, Clients: 30, Replicas: 2, Duration: 150, Seed: 17, Network: multiGatewayModel(),
			Faults: &fault.Spec{
				GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
				ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 70, RecoverAfterSeconds: 30}},
				LinkFlaps:      []fault.Flap{{Gateway: 0, FirstAtSeconds: 25, DownSeconds: 8, PeriodSeconds: 40}},
			}},
			digest: "ce2f10a2d52a95ece3741c8e33b64ed9483d4004f97eac09656a75230a750f74"},
		{name: "seq-fault-timeline", opts: RunOptions{Pools: Baseline, Clients: 30, Replicas: 2, Duration: 150, Seed: 18, Network: multiGatewayModel(),
			Faults: &fault.Spec{},
			FaultTimeline: []fault.Event{
				{Kind: fault.GatewayLeave, At: 30, Target: 2},
				{Kind: fault.ReplicaCrash, At: 65, Target: 0, RequeueDelaySec: 0.5},
				{Kind: fault.LinkDown, At: 80, Target: fault.Backhaul},
				{Kind: fault.LinkUp, At: 84, Target: fault.Backhaul},
				{Kind: fault.GatewayJoin, At: 90, Target: 2},
				{Kind: fault.ReplicaRecover, At: 110, Target: 0},
			}},
			digest: "9a653d1340ddb09550f325a10045da2574fdcf2d3863019000ba71842a76f56e"},
		{name: "seq-retry-failover", opts: retry,
			digest: "206395e222a66aef0225606f3ab880653b8a73dd89fdc9550ac225c0adaadfde"},
		{name: "seq-adaptive-hedge", opts: hedge,
			digest: "a755018ef81656d90ab9cfbe6e9c9088c00cb809e4c272deb85c85c05731aa93"},
		{name: "seq-shards-1", opts: RunOptions{Pools: Baseline, Clients: 20, Duration: 120, Seed: 19, Network: shardedNetModel(false), Shards: 1, TraceRequests: 2},
			digest: "c61bc3a31706592160c4efa6b8fe3243fb9b335fd3476ae7ac0618690f457116"},
		{name: "sharded-golden", opts: shardedGoldenOpts(),
			digest: "a177ac7ed3ba6a95a80ce8ce8a9e4cdc3ea7571b7ea6e616699b7903fcacda99"},
		{name: "sharded-open-loop", opts: RunOptions{Pools: Baseline, OpenLoopRate: 18, Replicas: 2, Duration: 150, Seed: 21, Network: shardedNetModel(false), Shards: 2, TraceRequests: 5},
			digest: "772997946a9ad62293ac50c68af476712d8d3b2f4cabc7f57f9785e63129a946"},
		{name: "sharded-arrivals", opts: RunOptions{Pools: Baseline, Arrivals: arrivals, Replicas: 2, Duration: arrivals.TotalDuration(), Warmup: 20, Seed: 22, Network: shardedNetModel(true), Shards: 3},
			digest: "37710e15d8540dcb43293c00891480df89b7af9fb34f26cd872c545afbeeda14"},
		{name: "sharded-hedge", opts: RunOptions{Pools: Baseline, Clients: 40, Replicas: 2, Duration: 150, Seed: 23, Network: shardedNetModel(false), Shards: 2,
			Faults:     &fault.Spec{ReplicaCrashes: []fault.Crash{{Replica: 0, AtSeconds: 80, RecoverAfterSeconds: 20}}},
			Resilience: &resilience.Policy{TimeoutSeconds: 10, Hedge: &resilience.Hedge{Quantile: 0.9, DelaySeconds: 5}, Failover: true}},
			digest: "bd5884d931400cbbd977da1244c8611e133de4108bb26dc4cd73de74a43ac959"},
		{name: "sharded-idle", opts: RunOptions{Pools: Baseline, OpenLoopRate: 0.05, Duration: 300, Seed: 24, Network: shardedNetModel(false), Shards: 2, TraceRequests: 3},
			digest: "bb97139479ffd77145bea5eab3e0eeb98b53536a9b675e25d0928bb31e4692d6"},
	}
}

// TestMetricsDigestPinned pins every Metrics field of both deterministic
// families bit for bit: the sha256 of metricsFingerprint per configuration.
// The digests were captured before the sequential sampler and the sharded
// row merge became one function; any drift is a change in what the engine
// computes, not in how the metrics are laid out.
func TestMetricsDigestPinned(t *testing.T) {
	for _, c := range digestCases() {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewRunner().Run(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed == 0 {
				t.Fatal("run completed nothing")
			}
			sum := sha256.Sum256([]byte(metricsFingerprint(m)))
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
		})
	}
}
