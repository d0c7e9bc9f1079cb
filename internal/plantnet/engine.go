package plantnet

import (
	"fmt"
	"math"
	"math/rand"

	"e2clab/internal/fault"
	"e2clab/internal/resilience"
	"e2clab/internal/rngutil"
	"e2clab/internal/sim"
	"e2clab/internal/sim/shard"
	"e2clab/internal/stats"
	"e2clab/internal/workload"
)

// RunOptions configures one engine experiment: a thread-pool configuration
// exercised by a closed-loop population of simultaneous requests for a
// fixed duration — exactly the paper's experimental unit (23 minutes, one
// PoolConfig, one workload).
type RunOptions struct {
	Pools PoolConfig
	// Clients is the number of simultaneous requests (the paper's
	// workloads: 80, 120, 140) for the default closed-loop mode.
	Clients int
	// OpenLoopRate, when positive, switches to an open-loop workload:
	// requests arrive as a Poisson process at this rate (req/s) regardless
	// of completions, and Clients is ignored. Useful for what-if capacity
	// studies where demand is exogenous (see examples/capacity).
	OpenLoopRate float64
	// Arrivals, when non-nil, switches to an open-loop workload whose
	// rate follows a piecewise-constant profile — a nonhomogeneous Poisson
	// process realized by seeded Lewis-Shedler thinning. Unlike lowering a
	// shaped workload to independent per-phase runs, queue state carries
	// across the rate changes within the single run. Overrides Clients and
	// OpenLoopRate.
	Arrivals *workload.PiecewiseRate
	// Network, when non-nil, switches the run to the simulated network
	// continuum: every request traverses explicit per-hop sim.Links
	// (per-gateway uplink, shared backhaul) before the pipeline and the
	// reverse path after it, so the measured user response time includes
	// queueing on the network. nil keeps the network out of the run — the
	// analytical mode, where callers price the path in closed form with
	// netem.TransferSeconds. Runners, the package's idle ones included,
	// key the links they build on this pointer: treat a model as
	// immutable once it has been run, and build a new one to change it.
	Network *NetworkModel
	// Replicas is the number of engine instances, each on its own node
	// with its own pools, CPU and GPU; clients are spread round-robin
	// (the paper deploys the engine "on the chifflot machines"). Default 1.
	Replicas int
	// Duration is the experiment length in seconds (paper: 1380).
	Duration float64
	// Warmup excludes the initial transient from statistics (default 60 s).
	Warmup float64
	// SampleInterval is the metric-collection period (paper: 10 s).
	SampleInterval float64
	// TraceRequests records the full Table I task breakdown of the first N
	// post-warmup completions in Metrics.Traces (0 disables tracing).
	TraceRequests int
	// Faults, when non-nil and non-zero, compiles a deterministic fault
	// schedule into the run's event calendar: gateway churn and link
	// flaps/transitions (both require Network), and replica crashes with
	// failover to the surviving replicas. Schedule times are relative to
	// the start of THIS run; the stochastic parts (churn intervals,
	// failover delays) draw from their own streams derived from Seed, so
	// a non-faulted run consumes exactly the same RNG it always did.
	Faults *fault.Spec
	// FaultTimeline, when non-nil, bypasses the per-run compile and
	// schedules these pre-compiled events verbatim (times relative to
	// this run's t=0). scenario.Run uses it to lower ONE wall-clock fault
	// timeline continuously across the phases of a phased workload
	// (fault.Windows); tests use it to pin exact event times. An empty
	// non-nil slice is a valid window with no events.
	FaultTimeline []fault.Event
	// Resilience, when non-nil and non-zero, compiles the policy into
	// pre-bound event-kernel hooks at setup: per-attempt timeouts,
	// seeded-jitter retries, hedged requests, per-replica circuit
	// breakers, gateway failover and queue-depth shedding. All policy
	// randomness comes from per-request substreams derived from Seed
	// (internal/resilience), never from the engine streams — a policied
	// run sees the exact fault timeline the unpolicied run does, and a
	// policy-free run consumes zero extra randomness.
	Resilience *resilience.Policy
	// MaxParallel bounds the worker pool RunRepeated uses to execute its
	// independent seeded runs concurrently; 0 means GOMAXPROCS, 1 forces
	// sequential execution. A single Run ignores it (the discrete-event
	// kernel is single-threaded by design).
	MaxParallel int
	// Shards >= 2 runs THIS experiment on the sharded event kernel
	// (internal/sim/shard): the gateway classes become domain shards, the
	// replicas/backhaul a core shard, each with a private engine advancing
	// in conservative lookahead windows, executed by up to Shards workers.
	// Requires a simulated Network. Output is a fixed-seed deterministic
	// function of the scenario and is bit-identical for every Shards >= 2
	// and every GOMAXPROCS — but it is a DIFFERENT deterministic family
	// than the sequential kernel (domain-partitioned RNG streams; see
	// sharded.go). Shards <= 1 keeps the sequential kernel, bit-identical
	// to a run without the field.
	Shards   int
	Seed     int64
	Hardware Hardware    // zero value -> Chifflot()
	Cal      Calibration // zero value -> DefaultCalibration()
}

func (o *RunOptions) fillDefaults() {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Duration <= 0 {
		o.Duration = 1380
	}
	if o.Warmup <= 0 {
		o.Warmup = 60
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = 10
	}
	if o.Hardware == (Hardware{}) {
		o.Hardware = Chifflot()
	}
	if o.Cal.GPURate == 0 {
		o.Cal = DefaultCalibration()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Sample is one metric-collection snapshot (every 10 s in the paper).
// Utilizations and busy fractions average over replicas; power is summed.
type Sample struct {
	Time          float64
	RespTime      float64 // mean response time of requests completed in the window (NaN if none)
	Throughput    float64 // completions/s in the window
	CPUUtil       float64
	GPUUtil       float64 // delivered inference throughput / peak
	GPUPowerW     float64
	CPUPowerW     float64
	GPUMemGB      float64
	SysMemGB      float64
	HTTPBusy      float64
	DownloadBusy  float64
	ExtractBusy   float64
	SimsearchBusy float64
}

// Metrics aggregates an experiment, mirroring the quantities in the paper's
// Figures 3 and 8-11: user response time (mean ± std over samples), task
// processing times, resource usage, and pool busy fractions.
type Metrics struct {
	Config    PoolConfig
	Clients   int
	Replicas  int
	Duration  float64
	Completed int

	// UserResponseTime summarizes the per-sample window means, matching
	// the paper's "metric values collected every 10 seconds". In simulated
	// network mode it includes the network path; in analytical mode it is
	// engine-side only.
	UserResponseTime stats.Summary
	// RespP50/P95/P99 are per-request response-time percentiles over the
	// measured period (reservoir-estimated) — tail latency the paper's
	// means do not expose.
	RespP50, RespP95, RespP99 float64
	// Throughput is completions/s over the measured period.
	Throughput float64
	// TaskTimes summarizes each Table I step over completed requests.
	TaskTimes map[string]stats.Summary

	CPUUtil       stats.Summary
	GPUUtil       stats.Summary
	GPUPowerW     stats.Summary
	CPUPowerW     stats.Summary
	HTTPBusy      stats.Summary
	DownloadBusy  stats.Summary
	ExtractBusy   stats.Summary
	SimsearchBusy stats.Summary
	// GPUMemGB and SysMemGB are per-replica (per-node) footprints.
	GPUMemGB float64
	SysMemGB float64
	// EnergyPerRequestJ is the engine energy (CPU+GPU, all replicas)
	// divided by completed requests over the measured period, in Joules.
	EnergyPerRequestJ float64

	// NetDelivered / NetRetransmits count simulated-network payload
	// deliveries and loss-driven retransmissions across all links (zero in
	// analytical mode).
	NetDelivered   int64
	NetRetransmits int64

	// Fault-injection outcome taxonomy (all zero when RunOptions.Faults is
	// nil). GatewayFailures counts in-flight requests failed by a departed
	// gateway (closed-loop clients retry through a live one immediately).
	// CrashRequeues counts requests rescued off a crashed replica and
	// requeued on a survivor after the seeded failover delay; their
	// response time includes the failover penalty. CrashFailures counts
	// requests lost because no replica survived. DroppedArrivals counts
	// open-loop arrivals dropped because no live gateway or replica could
	// accept them (closed-loop clients park instead and resume on the next
	// join/recovery).
	GatewayFailures int64
	CrashRequeues   int64
	CrashFailures   int64
	DroppedArrivals int64

	// Resilience-policy outcome counters (all zero when
	// RunOptions.Resilience is nil). Retries counts re-dispatched
	// attempts; RetrySuccesses, logical requests that completed after at
	// least one retry. Hedges counts duplicate arms launched and
	// HedgeWins the ones that beat their primary. Rerouted counts
	// failover re-routes off churned gateways (both at submission and in
	// flight, each paying the surviving uplink). Shed counts arrivals
	// rejected at the admission watermark, BreakerOpens circuit-breaker
	// open transitions, and DeadlineExceeded attempts failed past their
	// per-attempt deadline.
	Retries          int64
	RetrySuccesses   int64
	Hedges           int64
	HedgeWins        int64
	Rerouted         int64
	Shed             int64
	BreakerOpens     int64
	DeadlineExceeded int64
	// FailedRequests counts terminal logical failures over the whole run
	// — attempts exhausted under a policy, or (in unpolicied faulted
	// runs) gateway failures, crash losses and dropped open-loop
	// arrivals. AvailabilityFraction is Completed/(Completed+Failed),
	// 1 when nothing failed. Goodput is post-warmup completions/s whose
	// user response met the policy timeout (== Throughput when no
	// timeout or no policy) — completions that needed longer than the
	// SLO, e.g. across retries, do not count.
	FailedRequests       int64
	AvailabilityFraction float64
	Goodput              float64

	Samples []Sample
	// Traces holds per-request task breakdowns when
	// RunOptions.TraceRequests > 0.
	Traces []RequestTrace
}

// RequestTrace is the task breakdown of one traced request.
type RequestTrace struct {
	// Start is the request submission time.
	Start float64
	// Response is the total user response time.
	Response float64
	// Tasks are the Table I step durations, in TaskNames order.
	Tasks [9]float64
}

// request tracks one identification query through the Table I pipeline.
// Nodes are owned by the engine's freelist and recycled after each
// completion. A pipeline stage is data: next holds the pending stage as a
// method expression such as (*engine).dlDone, a static func value, and
// step, bound once per node, runs it. Every hand-off passes the same step
// to the kernel (see then), so the steady-state request pipeline performs
// zero heap allocations: no request, no closure, no event, no sharedJob,
// and (in simulated network mode) no transfer.
type request struct {
	rep       *replica
	path      *gatewayPath // simulated network mode only
	hop       int          // next link index on the current direction
	start     float64
	taskStart float64
	tasks     [9]float64 // durations in TaskNames order

	// Fault-injection bookkeeping (only consulted when the run has a
	// fault schedule): the replica/gateway indices behind rep/path, the
	// request's slot in its replica's in-flight set (-1 when untracked),
	// and the pending bare stage timer (download, simsearch IO) a crash
	// must cancel — stale handles are inert, so it is never cleared.
	repIdx int32
	gw     int32
	ifIdx  int32
	timer  sim.Event

	// Resilience bookkeeping (only consulted when a policy is active).
	// A node is one ARM — an attempt in flight; the logical request is
	// the primary arm (pri == nil), which a hedge arm points back to.
	// rstate is the request's private SplitMix64 jitter substream,
	// prevDelay the decorrelated-backoff memory, deadline the absolute
	// per-attempt cutoff, and hedgeEv the pending hedge-launch timer
	// (generation-counted, so stale handles cancel inertly).
	rstate    uint64
	prevDelay float64
	deadline  float64
	attempts  int32
	arms      int32 // live arms of the logical request (primary only)
	won       bool  // logical completion latched (primary only)
	retried   bool  // at least one retry was dispatched (primary only)
	pri       *request
	hedgeEv   sim.Event

	// Sharded-kernel bookkeeping (only consulted when e.shRole != shNone;
	// see sharded.go): the cross-shard token correlating this arm's
	// up-crossing with its down-crossing, and — on the core — the domain
	// node the down-message answers to.
	shTok int64
	shSrc int32

	// Continuations, bound once in newRequestNode. A node has at most one
	// pipeline stage pending, next, which step runs. The hedge-launch
	// timer is the one continuation that is pending alongside the
	// pipeline, so hedgeFn is a closure of its own.
	next    func(*engine, *request)
	step    func()
	hedgeFn func()
}

// then makes stage the node's pending continuation and returns the bound
// step that runs it, for the kernel call that schedules the hand-off.
func (req *request) then(stage func(*engine, *request)) func() {
	req.next = stage
	return req.step
}

// replica is one engine instance on one node: its own pools, CPU and GPU.
// inflight tracks the requests currently inside the replica (arrive to
// postDone) when a fault schedule is active, so a crash can requeue
// exactly the affected work.
type replica struct {
	cpu      *sim.SharedResource
	gpu      *sim.SharedResource
	http     *sim.Pool
	dl       *sim.Pool
	ex       *sim.Pool
	ss       *sim.Pool
	inflight []*request
}

// engine wires the replicas and runs the pipeline. One engine is reused
// across the runs of a Runner: everything per-run is reset in
// Runner.prepare, while the simulation arena, resource freelists, request
// nodes (with their bound step and hedge continuations), RNGs, the response
// reservoir and the sampler rows survive — which is what cuts the per-run setup allocations.
// A run's Metrics come from mergeMetrics over the engine's rows: the
// sequential kernel merges its one engine, the sharded kernel its core and
// domain engines.
type engine struct {
	sim    *sim.Engine
	rng    *rand.Rand
	resRng *rand.Rand // reservoir stream, re-seeded per run
	netRng *rand.Rand // link loss stream, re-seeded per run
	cal    Calibration
	hw     Hardware
	reps   []*replica
	next   int // round-robin client-to-replica assignment
	// submitFn and tickFn are e.submit and e.sampleTick bound once per
	// engine: a method value allocates, and a run schedules one per client
	// and one per sampler tick.
	submitFn func()
	tickFn   func()

	net      *netState     // nil in analytical mode
	netModel *NetworkModel // model net was built from (cache key)
	nextGw   int           // round-robin client-to-gateway assignment

	// Fault-injection state (see fault.go). faultsOn gates every hot-path
	// check so non-faulted runs take exactly the branches they always did.
	faultsOn     bool
	faultEvents  []fault.Event // compiled timeline (buffer reused across runs)
	faultCursor  int
	faultStepFn  func()     // bound once per engine
	faultRng     *rand.Rand // failover-delay stream, re-seeded per run
	gwDown       []bool
	repDown      []bool
	gwDownCount  int
	repDownCount int
	parked       int     // closed-loop clients waiting for capacity to return
	extractHold  float64 // per-replica pinned CPU hold, re-added on recovery

	cGatewayFail int64
	cCrashReq    int64
	cCrashFail   int64
	cDropped     int64

	// Resilience-policy state (see resilience.go). resOn gates every
	// hot-path check, mirroring faultsOn, so policy-free runs take
	// exactly the branches — and consume exactly the randomness — they
	// always did. The flattened policy fields avoid pointer chasing on
	// the request hot path.
	resOn         bool
	resTimeout    float64 // per-attempt deadline; +Inf when unset
	resRetryMax   int32
	resRetryBase  float64
	resRetryCap   float64
	resHedgeOn    bool
	resHedgeQ     float64
	resHedgeDelay float64 // current hedge-launch delay; +Inf = dormant
	resBrkThresh  int32
	resBrkOpen    float64
	resFailover   bool
	resShedDepth  int
	resSeedBase   uint64 // per-run base of the request jitter substreams
	resSerial     uint64
	brkFails      []int32
	brkState      []uint8
	brkUntil      []float64
	gwClass       []int32 // gateway -> network-class index (failover)
	classLo       []int32 // class -> first gateway index
	classHi       []int32 // class -> one past last gateway index

	cRetries   int64
	cRetrySucc int64
	cHedges    int64
	cHedgeWins int64
	cRerouted  int64
	cShed      int64
	cBrkOpens  int64
	cDeadline  int64
	cFailed    int64
	goodDone   int64 // completions within the policy timeout (SLO)

	// Sharded-kernel state (see sharded.go). shRole is shNone in the
	// legacy single-engine discipline; every hot-path branch below is
	// gated on it so legacy runs take exactly the branches they always
	// did. A domain engine owns one gateway class and its clients; the
	// core engine owns the replicas and the backhaul. Crossing latencies
	// are the halves of the client<->replica path that the cross-shard
	// message itself travels (at least the window width, by construction).
	shRole     uint8
	shCoreID   int32         // domain: node index of the core shard
	shRepCount int32         // domain: mirrored replica count (e.reps is empty)
	shDomGw0   int32         // domain: global index of this domain's first gateway
	shUpLat    float64       // domain->core crossing latency
	shDownLat  float64       // core->domain crossing latency
	shOut      *shard.Outbox // current window's outbox (set per Advance)
	shArms     []*request    // domain: token -> arm awaiting its down-message
	shArmFree  []int32       // domain: free token slots
	shTokRep   [][]int32     // core: [domain][token] -> replica index + 1
	shSlots    []*shSlot     // every inbox slot ever built (refills the freelist)
	shSlotFree []*shSlot

	openLoop   bool
	warmup     float64 // end of the warmup transient (RunOptions.Warmup)
	warmupDone bool
	completed  int
	traceN     int
	traces     []RequestTrace
	windowResp stats.Welford    // responses completed in the current sample window
	rows       []tickRow        // one per sampler tick, merged by mergeMetrics
	respRes    *stats.Reservoir // per-request response times, post-warmup
	qScratch   []float64        // reused quantile output buffer (see Reservoir.Quantiles)
	taskAgg    [9]stats.Welford
	freeReqs   []*request // recycled request nodes (continuations pre-bound)
	allReqs    []*request // every node ever built, to refill freeReqs on reset
}

// newRequest takes a node from the freelist (or builds a fresh one) and
// points it at rep.
//
//simlint:noalloc steady-state requests pop recycled nodes; the cold branch is the refill point
func (e *engine) newRequest(rep *replica) *request {
	var req *request
	if n := len(e.freeReqs); n > 0 {
		req = e.freeReqs[n-1]
		e.freeReqs = e.freeReqs[:n-1]
	} else {
		req = e.newRequestNode() //simlint:allow noallocclosure newRequestNode is the //go:noinline freelist refill; steady state pops recycled nodes above
	}
	req.rep = rep
	req.start = e.sim.Now()
	req.tasks = [9]float64{}
	req.ifIdx = -1
	req.shTok = -1 // no crossing yet (a hedge may reference its primary's token)
	if e.resOn {
		e.initArm(req)
	}
	return req
}

// newRequestNode is the freelist refill: a node with its step and hedge
// continuations bound once. Kept out of line so newRequest's steady state
// stays provably allocation-free.
//
//go:noinline
func (e *engine) newRequestNode() *request {
	req := &request{}
	req.step = func() { req.next(e, req) }
	req.hedgeFn = func() { e.launchHedge(req) }
	e.allReqs = append(e.allReqs, req)
	return req
}

// Runner executes engine experiments, recycling the simulation engine,
// replicas, pools, samplers' RNGs, the response reservoir, and the request
// freelist across runs — the per-run setup cost that dominated
// RunRepeated's allocation profile. A Runner is NOT safe for concurrent
// use; each RunRepeated worker runs on its own (the receiver, or a warm
// one borrowed from the package's idle list). Every run's output is
// bit-identical to a run on a fresh Runner, whatever configurations the
// Runner ran before (the reset is complete), which the golden,
// repeat-determinism and idle-reuse tests enforce.
type Runner struct {
	e *engine
	// sh holds the pooled sharded-kernel machinery (per-shard engines,
	// coordinator, derived network models) when Shards >= 2 is used; nil
	// otherwise. See sharded.go.
	sh *shardedState
}

// NewRunner returns an empty Runner; the first Run populates it.
func NewRunner() *Runner { return &Runner{} }

// Run executes one experiment and returns its metrics. It borrows a warm
// Runner from the package's idle list (at most GOMAXPROCS stay alive
// between calls); the output is bit-identical to a fresh Runner's, and the
// returned Metrics share no state with the Runner.
func Run(opts RunOptions) (*Metrics, error) {
	r := borrowRunner()
	m, err := r.Run(opts)
	if err == nil {
		returnRunner(r)
	}
	return m, err
}

// Run executes one experiment on the runner's pooled state.
func (r *Runner) Run(opts RunOptions) (*Metrics, error) {
	opts.fillDefaults()
	if err := opts.Pools.Validate(); err != nil {
		return nil, err
	}
	if opts.Clients < 1 && opts.OpenLoopRate <= 0 && opts.Arrivals == nil {
		return nil, fmt.Errorf("plantnet: need at least one client, a positive OpenLoopRate, or an Arrivals profile")
	}
	if opts.Arrivals != nil {
		if err := opts.Arrivals.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Network != nil {
		if err := opts.Network.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Shards >= 2 {
		return r.runSharded(opts)
	}
	return r.prepare(opts).run(opts)
}

// prepare builds the engine on first use and resets it on every subsequent
// run. The reset is exhaustive: clock, arena, RNG streams, reservoir,
// resources, request nodes, links, and aggregation state all return to the
// fresh-construction state, so a reused engine's run is bit-identical to a
// fresh one. Construction performs no RNG draws, so build/reuse ordering
// cannot perturb determinism.
func (r *Runner) prepare(opts RunOptions) *engine {
	r.e = prepareEngine(r.e, opts)
	return r.e
}

// prepareEngine is prepare's engine-level body, shared with the sharded
// runner (which prepares one engine per shard from role-specific options;
// see sharded.go). A nil e builds a fresh engine.
func prepareEngine(e *engine, opts RunOptions) *engine {
	if e == nil {
		e = &engine{
			sim:    sim.NewEngine(),
			rng:    rngutil.New(opts.Seed),
			resRng: rngutil.New(opts.Seed + 101),
		}
		e.respRes = stats.NewReservoir(8192, e.resRng)
		e.submitFn = e.submit
		e.tickFn = e.sampleTick
	} else {
		e.sim.Reset()
		e.rng.Seed(opts.Seed)
		e.resRng.Seed(opts.Seed + 101)
		e.respRes.Reset()
		// Every request node becomes reusable after the calendar reset,
		// including the ones that were in flight when the last run ended.
		e.freeReqs = append(e.freeReqs[:0], e.allReqs...)
		e.next, e.nextGw = 0, 0
		e.openLoop, e.warmupDone = false, false
		e.completed = 0
		e.traces = nil // the previous run's Metrics owns its slice
		e.windowResp = stats.Welford{}
		e.taskAgg = [9]stats.Welford{}
	}
	e.cal, e.hw = opts.Cal, opts.Hardware
	e.traceN = opts.TraceRequests
	e.extractHold = opts.Cal.ExtractThreadCPU * float64(opts.Pools.Extract)
	e.faultsOn = !opts.Faults.IsZero() || opts.FaultTimeline != nil
	e.faultCursor, e.parked = 0, 0
	e.gwDownCount, e.repDownCount = 0, 0
	e.cGatewayFail, e.cCrashReq, e.cCrashFail, e.cDropped = 0, 0, 0, 0
	e.resOn = !opts.Resilience.IsZero()
	e.resSerial = 0
	e.cRetries, e.cRetrySucc, e.cHedges, e.cHedgeWins = 0, 0, 0, 0
	e.cRerouted, e.cShed, e.cBrkOpens, e.cDeadline = 0, 0, 0, 0
	e.cFailed, e.goodDone = 0, 0
	// Role state returns to the legacy discipline; the sharded runner
	// re-establishes roles after preparing each shard's engine.
	e.shRole, e.shOut = shNone, nil

	cal, hw := opts.Cal, opts.Hardware
	gpuRate := func(k float64) float64 {
		if k <= 0 {
			return 0
		}
		rate := cal.GPURate * min(k, cal.GPUSatConcurrency) / cal.GPUSatConcurrency
		if over := k - cal.GPUSatConcurrency; over > 0 {
			rate /= 1 + cal.GPUOversubPenalty*over
		}
		return rate
	}
	if len(e.reps) == opts.Replicas {
		for _, rep := range e.reps {
			rep.cpu.Reset(hw.CPUCores, sim.CPURate(hw.CPUCores))
			rep.gpu.Reset(cal.GPURate, gpuRate)
			rep.http.Reset(opts.Pools.HTTP)
			rep.dl.Reset(opts.Pools.Download)
			rep.ex.Reset(opts.Pools.Extract)
			rep.ss.Reset(opts.Pools.Simsearch)
			rep.cpu.AddHold(cal.ExtractThreadCPU * float64(opts.Pools.Extract))
			for i := range rep.inflight {
				rep.inflight[i] = nil
			}
			rep.inflight = rep.inflight[:0]
		}
	} else {
		e.reps = e.reps[:0]
		for i := 0; i < opts.Replicas; i++ {
			rep := &replica{
				cpu:  sim.NewCPU(e.sim, hw.CPUCores),
				gpu:  sim.NewSharedResource(e.sim, cal.GPURate, gpuRate),
				http: sim.NewPool(e.sim, "http", opts.Pools.HTTP),
				dl:   sim.NewPool(e.sim, "download", opts.Pools.Download),
				ex:   sim.NewPool(e.sim, "extract", opts.Pools.Extract),
				ss:   sim.NewPool(e.sim, "simsearch", opts.Pools.Simsearch),
			}
			// Pinned per-extract-worker CPU overhead (busy polling, marshaling).
			rep.cpu.AddHold(cal.ExtractThreadCPU * float64(opts.Pools.Extract))
			e.reps = append(e.reps, rep)
		}
	}

	if opts.Network != nil {
		if e.netRng == nil {
			e.netRng = rngutil.New(opts.Seed + 211)
		} else {
			e.netRng.Seed(opts.Seed + 211)
		}
		if e.net != nil && e.netModel == opts.Network {
			e.net.reset()
		} else {
			e.net = buildNetState(e.sim, opts.Network, e.netRng)
			e.netModel = opts.Network
		}
	} else {
		e.net, e.netModel = nil, nil
	}
	return e
}

// run executes the experiment on a prepared engine.
func (e *engine) run(opts RunOptions) (*Metrics, error) {
	se := e.sim

	// Fault schedule and resilience policy first: compiled and placed on
	// the calendar before anything else, so at any shared instant —
	// including exactly t=0, where a windowed phase carries crashed/churned
	// state in — fault events hold the lowest sequence numbers and fire
	// before the first arrival or sampler tick. No pending same-instant
	// pipeline event can slip in between, which is what makes crash/churn
	// handlers sound.
	if e.faultsOn {
		if err := e.setupFaults(opts); err != nil {
			return nil, err
		}
	}
	if e.resOn {
		if err := e.setupResilience(opts); err != nil {
			return nil, err
		}
	}

	if opts.Arrivals != nil || opts.OpenLoopRate > 0 {
		e.startOpenArrivals(opts, 1, 1)
	} else {
		// Closed-loop clients: each keeps exactly one request in flight,
		// starting staggered over the first seconds to avoid lockstep.
		for i := 0; i < opts.Clients; i++ {
			se.Schedule(e.rng.Float64()*2, e.submitFn)
		}
	}
	e.scheduleTicks(opts)
	se.Run(opts.Duration)

	m := mergeMetrics(opts, []*engine{e})
	if e.respRes.N() > 0 {
		e.qScratch = e.respRes.Quantiles(e.qScratch[:0], 0.50, 0.95, 0.99)
		m.RespP50, m.RespP95, m.RespP99 = e.qScratch[0], e.qScratch[1], e.qScratch[2]
	}
	m.Traces = e.traces
	return m, nil
}

// startOpenArrivals starts the engine's open-loop arrival process, carrying
// the share gateways/ngw of the run's demand: a Poisson process at that
// share of OpenLoopRate, or, under an Arrivals profile, a nonhomogeneous
// Poisson process by Lewis-Shedler thinning — candidates at that share of
// the envelope rate λmax, each accepted with probability λ(now)/λmax, the
// accept draw preceding the gap draw. The sequential kernel passes (1, 1),
// which leaves the rates exact; a sharded domain passes its gateway count.
func (e *engine) startOpenArrivals(opts RunOptions, gateways, ngw int) {
	e.openLoop = true
	se := e.sim
	var arrive func()
	if rates := opts.Arrivals; rates != nil {
		lmax := rates.Max()
		ld := lmax * float64(gateways) / float64(ngw)
		arrive = func() {
			if e.rng.Float64()*lmax < rates.At(se.Now()) {
				e.submit()
			}
			se.Schedule(e.rng.ExpFloat64()/ld, arrive)
		}
		se.Schedule(e.rng.ExpFloat64()/ld, arrive)
		return
	}
	rate := opts.OpenLoopRate * float64(gateways) / float64(ngw)
	arrive = func() {
		e.submit()
		se.Schedule(e.rng.ExpFloat64()/rate, arrive)
	}
	se.Schedule(e.rng.ExpFloat64()/rate, arrive)
}

// tickRow is one engine's sampler snapshot at one tick: the resource
// integrals summed over the engine's own replicas, the completion window
// that the tick closed, and the running completion counts.
type tickRow struct {
	t                          float64
	cpuW, gpuW, hB, dB, xB, sB float64
	resp                       stats.Welford
	completed                  int
	good                       int64
}

// scheduleTicks places the engine's sampler ticks on its calendar, every
// SampleInterval up to the horizon. Callers schedule them after the
// arrival process, which fixes their order among same-instant events.
func (e *engine) scheduleTicks(opts RunOptions) {
	e.warmup = opts.Warmup
	e.rows = e.rows[:0]
	for t := opts.SampleInterval; t <= opts.Duration+1e-9; t += opts.SampleInterval {
		e.sim.At(t, e.tickFn)
	}
}

// sampleTick is the sampler tick: it appends the engine's row, opens the
// next completion window, re-derives the adaptive hedge delay from the
// live post-warmup response distribution once enough samples accumulated,
// and ends warmup at the first tick past it.
func (e *engine) sampleTick() {
	row := tickRow{t: e.sim.Now(), resp: e.windowResp, completed: e.completed, good: e.goodDone}
	for _, r := range e.reps {
		row.cpuW += r.cpu.WorkIntegral()
		row.gpuW += r.gpu.WorkIntegral()
		row.hB += r.http.BusyIntegral()
		row.dB += r.dl.BusyIntegral()
		row.xB += r.ex.BusyIntegral()
		row.sB += r.ss.BusyIntegral()
	}
	e.rows = append(e.rows, row)
	e.windowResp = stats.Welford{}
	if e.resOn && e.resHedgeQ > 0 && e.respRes.N() >= resilience.HedgeMinSamples {
		e.qScratch = e.respRes.Quantiles(e.qScratch[:0], e.resHedgeQ)
		e.resHedgeDelay = e.qScratch[0]
	}
	if row.t > e.warmup {
		e.warmupDone = true
	}
}

// mergeMetrics builds a run's Metrics from its engines' sampler rows and
// counters: every Sample, the post-warmup aggregates, energy, throughput,
// goodput, availability, task times and the outcome counters. At each
// tick it sums the engines' integrals and merges their completion windows
// in order. The sequential kernel passes its one engine; the sharded one
// passes [core, domains...], whose domains hold no replicas and whose core
// completes nothing, so both sums are exact. Response percentiles and
// traces are left to the caller: each family samples them its own way.
func mergeMetrics(opts RunOptions, engines []*engine) *Metrics {
	m := &Metrics{Config: opts.Pools, Clients: opts.Clients, Replicas: opts.Replicas,
		Duration: opts.Duration, TaskTimes: make(map[string]stats.Summary)}
	cal, hw := opts.Cal, opts.Hardware
	nRep := float64(opts.Replicas)
	m.GPUMemGB = cal.GPUMemGB(opts.Pools)
	m.SysMemGB = cal.SysMemGB(opts.Pools)
	var (
		last                              tickRow
		respW, cpuW, gpuW, hB, dB, xB, sB stats.Welford
		gpuPW, cpuPW                      stats.Welford
		energyJ                           float64
		warm                              bool
		measStartT                        float64
		measStartCompleted                int
		measStartGood                     int64
	)
	for i := range engines[0].rows {
		row := tickRow{t: engines[0].rows[i].t}
		for _, e := range engines {
			r := &e.rows[i]
			row.cpuW += r.cpuW
			row.gpuW += r.gpuW
			row.hB += r.hB
			row.dB += r.dB
			row.xB += r.xB
			row.sB += r.sB
			row.resp.Merge(r.resp)
			row.completed += r.completed
			row.good += r.good
		}
		t, dt := row.t, row.t-last.t
		s := Sample{Time: t, GPUMemGB: m.GPUMemGB, SysMemGB: m.SysMemGB}
		s.CPUUtil = (row.cpuW - last.cpuW) / (hw.CPUCores * nRep * dt)
		s.GPUUtil = (row.gpuW - last.gpuW) / (cal.GPURate * nRep * dt)
		// Power sums over replicas (nodes); utilizations are averages.
		s.GPUPowerW = (cal.GPUIdlePowerW + cal.GPUPowerSlopeW*s.GPUUtil) * nRep
		s.CPUPowerW = (cal.CPUIdlePowerW + cal.CPUPowerSlopeW*s.CPUUtil) * nRep
		s.HTTPBusy = (row.hB - last.hB) / (float64(opts.Pools.HTTP) * nRep * dt)
		s.DownloadBusy = (row.dB - last.dB) / (float64(opts.Pools.Download) * nRep * dt)
		s.ExtractBusy = (row.xB - last.xB) / (float64(opts.Pools.Extract) * nRep * dt)
		s.SimsearchBusy = (row.sB - last.sB) / (float64(opts.Pools.Simsearch) * nRep * dt)
		if row.resp.N() > 0 {
			s.RespTime = row.resp.Mean()
			s.Throughput = float64(row.resp.N()) / dt
		} else {
			s.RespTime = math.NaN()
		}
		last = row
		if t <= opts.Warmup {
			continue
		}
		if !warm {
			warm = true
			measStartT, measStartCompleted, measStartGood = t, row.completed, row.good
			continue
		}
		// Aggregate post-warmup samples.
		if !math.IsNaN(s.RespTime) {
			respW.Add(s.RespTime)
		}
		cpuW.Add(s.CPUUtil)
		gpuW.Add(s.GPUUtil)
		gpuPW.Add(s.GPUPowerW)
		cpuPW.Add(s.CPUPowerW)
		energyJ += (s.GPUPowerW + s.CPUPowerW) * dt
		hB.Add(s.HTTPBusy)
		dB.Add(s.DownloadBusy)
		xB.Add(s.ExtractBusy)
		sB.Add(s.SimsearchBusy)
		m.Samples = append(m.Samples, s)
	}

	var good int64
	for _, e := range engines {
		m.Completed += e.completed
		good += e.goodDone
		if e.net != nil {
			for _, l := range e.net.links {
				m.NetDelivered += l.Delivered()
				m.NetRetransmits += l.Retransmits()
			}
		}
		m.GatewayFailures += e.cGatewayFail
		m.CrashRequeues += e.cCrashReq
		m.CrashFailures += e.cCrashFail
		m.DroppedArrivals += e.cDropped
		m.Retries += e.cRetries
		m.RetrySuccesses += e.cRetrySucc
		m.Hedges += e.cHedges
		m.HedgeWins += e.cHedgeWins
		m.Rerouted += e.cRerouted
		m.Shed += e.cShed
		m.BreakerOpens += e.cBrkOpens
		m.DeadlineExceeded += e.cDeadline
		m.FailedRequests += e.cFailed
	}
	for i, name := range TaskNames {
		var w stats.Welford
		for _, e := range engines {
			w.Merge(e.taskAgg[i])
		}
		m.TaskTimes[name] = w.Snapshot()
	}
	m.UserResponseTime = respW.Snapshot()
	m.CPUUtil = cpuW.Snapshot()
	m.GPUUtil = gpuW.Snapshot()
	m.GPUPowerW = gpuPW.Snapshot()
	m.CPUPowerW = cpuPW.Snapshot()
	m.HTTPBusy = hB.Snapshot()
	m.DownloadBusy = dB.Snapshot()
	m.ExtractBusy = xB.Snapshot()
	m.SimsearchBusy = sB.Snapshot()
	if measured := m.Completed - measStartCompleted; measured > 0 {
		m.EnergyPerRequestJ = energyJ / float64(measured)
	}
	span := opts.Duration - measStartT
	if span > 0 && warm {
		m.Throughput = float64(m.Completed-measStartCompleted) / span
	}
	if tot := int64(m.Completed) + m.FailedRequests; tot > 0 {
		m.AvailabilityFraction = float64(int64(m.Completed)) / float64(tot)
	} else {
		m.AvailabilityFraction = 1
	}
	m.Goodput = m.Throughput
	if engines[0].resOn {
		m.Goodput = 0
		if span > 0 && warm {
			m.Goodput = float64(good-measStartGood) / span
		}
	}
	return m
}

// submit issues one request, assigned round-robin to a replica (and, in
// simulated network mode, to a gateway), and re-submits on completion
// (closed loop). Under a fault schedule or a resilience policy the
// round-robin is managed: dead replicas, departed gateways and open
// circuit breakers are skipped, and arms are deadline/hedge-armed (see
// submitManaged).
//
//simlint:noalloc steady-state submission reuses freelist nodes and their bound step
func (e *engine) submit() {
	if e.shRole == shDomain {
		e.submitDomain()
		return
	}
	if e.faultsOn || e.resOn {
		e.submitManaged()
		return
	}
	rep := e.reps[e.next%len(e.reps)]
	e.next++
	req := e.newRequest(rep)
	if e.net != nil {
		// Device -> engine: gateway uplink, then the shared backhaul.
		req.path = &e.net.paths[e.nextGw%len(e.net.paths)]
		e.nextGw++
		req.hop = 0
		e.netUp(req)
		return
	}
	// Client -> engine network half-RTT.
	e.sim.Schedule(e.cal.NetworkRTT/2, req.then((*engine).arrive))
}

// recordCompletion is the completion accounting both finish paths share:
// the count and the sampler window, and after warmup the response
// reservoir and the trace of the first TraceRequests completions.
//
//simlint:noalloc completion accounting (request hot path)
func (e *engine) recordCompletion(start, resp float64, tasks *[9]float64) {
	e.completed++
	e.windowResp.Add(resp)
	if e.warmupDone {
		e.respRes.Add(resp)
		if len(e.traces) < e.traceN {
			e.traces = append(e.traces, RequestTrace{Start: start, Response: resp, Tasks: *tasks})
		}
	}
}

// rec records the duration of task idx and resets the task clock.
func (e *engine) rec(req *request, idx int) {
	now := e.sim.Now()
	req.tasks[idx] = now - req.taskStart
	req.taskStart = now
	if e.warmupDone {
		e.taskAgg[idx].Add(req.tasks[idx])
	}
}

// The pipeline below follows Table I exactly; each stage records its
// duration then hands the node to the next. Each samples its service time
// at a fixed program point: moving a draw changes RNG consumption, and with
// it every fixed-seed output.

// arrive admits a request at its replica and queues it for an HTTP slot.
//
//simlint:noalloc request arrival (request hot path)
func (e *engine) arrive(req *request) {
	if e.resOn && e.arriveGuard(req) {
		return
	}
	if e.faultsOn && !e.admit(req) {
		return
	}
	req.taskStart = e.sim.Now()
	req.rep.http.Request(req.then((*engine).httpGranted))
}

func (e *engine) httpGranted(req *request) {
	if e.resOn && e.grantGuard(req) {
		return
	}
	// HTTP slot acquired; queueing before this point is part of the user
	// response time but not a Table I step.
	req.taskStart = e.sim.Now()
	req.rep.cpu.Add(e.cal.PreProcessWork.Sample(e.rng), req.then((*engine).preDone))
}

func (e *engine) preDone(req *request) {
	e.rec(req, 0) // pre-process
	req.rep.dl.Request(req.then((*engine).download))
}

func (e *engine) download(req *request) {
	e.rec(req, 1) // wait-download
	req.rep.cpu.AddHold(e.cal.DownloadCPUWeight)
	req.timer = e.sim.Schedule(e.cal.DownloadTime.Sample(e.rng), req.then((*engine).dlDone))
}

func (e *engine) dlDone(req *request) {
	req.rep.cpu.RemoveHold(e.cal.DownloadCPUWeight)
	req.rep.dl.Release()
	e.rec(req, 2) // download
	req.rep.ex.Request(req.then((*engine).extract))
}

func (e *engine) extract(req *request) {
	e.rec(req, 3) // wait-extract
	req.rep.gpu.Add(e.cal.ExtractWork.Sample(e.rng), req.then((*engine).exDone))
}

func (e *engine) exDone(req *request) {
	req.rep.ex.Release()
	e.rec(req, 4) // extract
	req.rep.cpu.Add(e.cal.ProcessWork.Sample(e.rng), req.then((*engine).procDone))
}

func (e *engine) procDone(req *request) {
	e.rec(req, 5) // process
	req.rep.ss.Request(req.then((*engine).simsearch))
}

func (e *engine) simsearch(req *request) {
	e.rec(req, 6) // wait-simsearch
	req.rep.cpu.Add(e.cal.SimsearchCPUWork.Sample(e.rng), req.then((*engine).ssCPUDone))
}

func (e *engine) ssCPUDone(req *request) {
	req.timer = e.sim.Schedule(e.cal.SimsearchIOTime.Sample(e.rng), req.then((*engine).ssIODone))
}

func (e *engine) ssIODone(req *request) {
	req.rep.ss.Release()
	e.rec(req, 7) // simsearch
	req.rep.cpu.Add(e.cal.PostProcessWork.Sample(e.rng), req.then((*engine).postDone))
}

func (e *engine) postDone(req *request) {
	e.rec(req, 8) // post-process
	if e.faultsOn {
		e.untrack(req) // the response has left the replica
	}
	req.rep.http.Release()
	// Engine -> client network half-RTT, then (in simulated network mode)
	// the response path hop by hop; the client sees the response and
	// immediately issues the next request.
	if e.net == nil {
		e.sim.Schedule(e.cal.NetworkRTT/2, req.then((*engine).finish))
		return
	}
	req.hop = 0
	if e.shRole == shCore {
		// Sharded: the engine->client half-RTT is paid by the
		// core->domain crossing at the end of the backhaul walk.
		e.netDown(req)
		return
	}
	e.sim.Schedule(e.cal.NetworkRTT/2, req.then((*engine).netDown))
}

// finish completes a request at its client.
//
//simlint:noalloc request completion (request hot path)
func (e *engine) finish(req *request) {
	if e.resOn {
		e.finishResilient(req)
		return
	}
	e.recordCompletion(req.start, e.sim.Now()-req.start, &req.tasks)
	// Recycle before resubmitting so a closed-loop client reuses its own
	// node immediately.
	e.freeReqs = append(e.freeReqs, req)
	if !e.openLoop {
		e.submit()
	}
}

// netUp walks the request's next uplink hop, or, past the last one, hands
// it on toward its replica.
//
//simlint:noalloc uplink hop (request hot path)
func (e *engine) netUp(req *request) {
	if e.resOn {
		if e.netUpGuard(req) {
			return
		}
	} else if e.faultsOn && e.gwDown[req.gw] {
		e.failGateway(req)
		return
	}
	if req.hop < len(req.path.up) {
		l := req.path.up[req.hop]
		req.hop++
		l.Transfer(e.net.upBytes, req.then((*engine).netUp))
		return
	}
	if e.shRole != shNone {
		// Sharded: the client->replica half-RTT is carried by the
		// cross-shard crossing, not a local schedule. A domain engine
		// finished its own uplink and hands the arm to the core; the core
		// engine finished the backhaul and the request arrives.
		if e.shRole == shDomain {
			e.domainCrossUp(req)
		} else {
			e.arrive(req)
		}
		return
	}
	e.sim.Schedule(e.cal.NetworkRTT/2, req.then((*engine).arrive))
}

// netDown walks the response's next downlink hop, or, past the last one,
// finishes it at its client.
//
//simlint:noalloc downlink hop (request hot path)
func (e *engine) netDown(req *request) {
	if e.resOn {
		if e.netDownGuard(req) {
			return
		}
	} else if e.faultsOn && e.gwDown[req.gw] {
		e.failGateway(req)
		return
	}
	if req.hop < len(req.path.down) {
		l := req.path.down[req.hop]
		req.hop++
		l.Transfer(e.net.downBytes, req.then((*engine).netDown))
		return
	}
	if e.shRole == shCore {
		// The response leaves the core: cross back to the owning domain,
		// which walks its own downlink and finishes.
		e.coreCrossDown(req)
		return
	}
	e.finish(req)
}
