package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"e2clab/internal/bo"
	"e2clab/internal/core"
	"e2clab/internal/netem"
	"e2clab/internal/plantnet"
	"e2clab/internal/rngutil"
	"e2clab/internal/scenario"
	"e2clab/internal/space"
	"e2clab/internal/surrogate"
	"e2clab/internal/tune"
)

// workers is the parallelism of every pool the workloads configure: the
// RunRepeated pool of listing1-optimize, the suite pool of continuum-suite
// and the shard count of edge-fleet-sharded. It matches the 2-CPU host the
// benchmark was sized on.
const workers = 2

// A workload names a set of inputs, the reason it is in the benchmark, and
// how to build a campaign for it from the seed.
type workload struct {
	name, why string
	// setup builds and validates the workload's specs and state from the
	// seed. tmp is a private scratch directory inside the checkout.
	setup func(seed int64, tmp string) (campaign, error)
}

var workloads = []workload{
	{"listing1-optimize",
		"the Listing 1 optimizer loop: the only workload where bo, surrogate and tune run, over the sequential engine kernel with no network",
		setupListing1},
	{"continuum-suite",
		"the 14-scenario continuum campaign: scenario lowering, sim links and packet transport, fault and resilience hooks and the checkpoint; bo and shard idle",
		setupContinuum},
	{"edge-fleet-sharded",
		"the only workload where the sim/shard window loop and cross-shard messages run, over a 10k-gateway working set; the optimizer idle",
		setupFleet},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// A campaign is a workload bound to its seed-derived inputs and any state
// it reuses from run to run.
type campaign interface {
	// run executes one workload run. A traced run also fills the layer
	// metrics of outcome; its simulated results must be identical.
	run(traced bool) (*outcome, error)
}

// outcome is what one workload run produced.
type outcome struct {
	// wall is the host time of the run itself, measured around the calls
	// into the program.
	wall   time.Duration
	digest string
	tally  tally
	// attempted and failed count operations: evaluations, scenarios or
	// runs.
	attempted, failed int
	// bestResp is the headline simulated mean response time, in seconds.
	bestResp float64

	// Traced runs only.
	layers  map[string]float64 // layer metrics this workload produces
	simBusy time.Duration      // host time inside the simulation spans
	seqWall time.Duration      // edge-fleet-sharded: the same run at Shards 1
}

// tally sums the simulator's exact outcome counters over one run.
type tally struct {
	completed, failed       int64
	retries, retrySuccesses int64
	netDelivered, netRetx   int64
}

func (t *tally) addMetrics(m *plantnet.Metrics) {
	t.completed += int64(m.Completed)
	t.failed += m.FailedRequests
	t.retries += m.Retries
	t.retrySuccesses += m.RetrySuccesses
	t.netDelivered += m.NetDelivered
	t.netRetx += m.NetRetransmits
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sumDur(spans []span) time.Duration {
	var s time.Duration
	for _, sp := range spans {
		s += sp.dur()
	}
	return s
}

// --- listing1-optimize ---

// listing1 is the Listing 1 stack (ET surrogate, LHS initial design,
// gp_hedge, ASHA) over the Equation 2 pool space at 80 clients.
type listing1 struct {
	spec    core.Spec // defaults filled by core.NewManager
	clients int
	objSeed int64
	// cands is the fixed unit-space candidate set the traced run scores
	// the replayed surrogate on.
	cands [][]float64
}

func setupListing1(seed int64, _ string) (campaign, error) {
	s := rngutil.NewSeeder(seed)
	m, err := core.NewManager(core.Spec{
		Problem: space.PlantNetProblem(),
		Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: "ET",
			NInitialPoints: 10, InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
		NumSamples: 40,
		// One evaluation at a time: with two in flight, Tell order follows
		// completion order and the best point found is not repeatable.
		MaxConcurrent:     1,
		UseASHA:           true,
		Repeat:            2,
		RepeatParallelism: workers,
		Duration:          200,
		Seed:              s.Next(),
	})
	if err != nil {
		return nil, err
	}
	w := &listing1{spec: m.Spec(), clients: 80, objSeed: s.Next()}
	rng := s.NextRand()
	for i := 0; i < 1000; i++ {
		u := make([]float64, w.spec.Problem.Space.Len())
		for j := range u {
			u[j] = rng.Float64()
		}
		w.cands = append(w.cands, u)
	}
	return w, nil
}

// objective is core.PlantNetObjective with the engine's counters tallied:
// the same configuration, seed derivation and RunRepeated call, so both
// return the same value (TestObjectiveMatchesCore).
func (w *listing1) objective(mu *sync.Mutex, t *tally) core.Objective {
	return func(ev *core.Evaluation) (float64, error) {
		cfg := plantnet.FromVector(ev.X)
		if err := cfg.Validate(); err != nil {
			return 0, err
		}
		s := rngutil.NewSeeder(w.objSeed + int64(ev.Index)*7919)
		rep, err := plantnet.RunRepeated(plantnet.RunOptions{
			Pools:       cfg,
			Clients:     w.clients,
			Duration:    ev.Duration,
			MaxParallel: ev.RepeatParallelism,
			Seed:        s.Next(),
		}, ev.Repeat)
		if err != nil {
			return 0, err
		}
		mu.Lock()
		for _, m := range rep.Runs {
			t.addMetrics(m)
		}
		mu.Unlock()
		return rep.UserResponseTime.Mean, nil
	}
}

func (w *listing1) run(traced bool) (*outcome, error) {
	var mu sync.Mutex
	o := &outcome{}
	obj := w.objective(&mu, &o.tally)
	var a *tune.Analysis
	if traced {
		var err error
		if a, err = w.runTraced(obj, o); err != nil {
			return nil, err
		}
	} else {
		t0 := time.Now()
		m, err := core.NewManager(w.spec)
		if err != nil {
			return nil, err
		}
		res, err := m.Optimize(obj)
		o.wall = time.Since(t0)
		if err != nil {
			return nil, err
		}
		a = res.Analysis
	}
	best := a.Best()
	if best == nil {
		return nil, errors.New("listing1-optimize: every evaluation failed")
	}
	o.bestResp = best.Value
	o.attempted = len(a.Trials)
	for _, t := range a.Trials {
		if t.Status == tune.Failed {
			o.failed++
		}
	}
	d := newDigest()
	d.add(a.Trials)
	d.add(best.Config)
	d.add(o.tally)
	o.digest = d.sum()
	return o, nil
}

// runTraced drives the optimizer through tune.Run exactly as core.Manager
// does, with every call into bo, the objective and the surrogate replay
// timed from here.
func (w *listing1) runTraced(obj core.Objective, o *outcome) (*tune.Analysis, error) {
	spec := w.spec
	t0 := time.Now()
	opt, err := bo.New(spec.Problem.Space, bo.Config{
		BaseEstimator:         spec.Search.BaseEstimator,
		NInitialPoints:        spec.Search.NInitialPoints,
		InitialPointGenerator: spec.Search.InitialPointGenerator,
		AcqFunc:               spec.Search.AcqFunc,
		Seed:                  spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	factory, err := surrogate.ByName(spec.Search.BaseEstimator)
	if err != nil {
		return nil, err
	}
	ts := &timedSearch{opt: opt, space: spec.Problem.Space, factory: factory,
		cands: w.cands, seed: spec.Seed}
	var sched tune.Scheduler
	if spec.UseASHA {
		sched = &tune.AsyncHyperBand{}
	}
	var mu sync.Mutex
	var evals []span
	index := 0
	objective := spec.Problem.Objectives[0]
	a, err := tune.Run(tune.RunConfig{
		Name:          spec.Problem.Name,
		Metric:        objective.Name,
		Mode:          objective.Mode,
		NumSamples:    spec.NumSamples,
		MaxConcurrent: spec.MaxConcurrent,
		Scheduler:     sched,
	}, ts, func(ctx *tune.Context, x []float64) (float64, error) {
		mu.Lock()
		ev := &core.Evaluation{Index: index, X: append([]float64(nil), x...),
			Repeat: spec.Repeat, Duration: spec.Duration,
			RepeatParallelism: spec.RepeatParallelism, Report: ctx.Report}
		index++
		mu.Unlock()
		start := time.Now()
		y, err := obj(ev)
		mu.Lock()
		evals = append(evals, span{start, time.Now()})
		mu.Unlock()
		return y, err
	})
	run := span{t0, time.Now()}
	o.wall = run.dur()
	if err != nil {
		return nil, err
	}
	var replays []span
	var fit, predict time.Duration
	for _, st := range ts.steps {
		replays = append(replays, st.span)
		fit += st.fit
		predict += st.predict
	}
	children := append(append(append(append([]span(nil), ts.asks...), ts.tells...), evals...), replays...)
	ask := sumDur(ts.asks)
	o.simBusy = sumDur(evals)
	o.layers = map[string]float64{
		"bo.ask_ms":            ms(ask),
		"bo.tell_ms":           ms(sumDur(ts.tells)),
		"surrogate.fit_ms":     ms(fit),
		"surrogate.predict_ms": ms(predict),
		"tune.overhead_ms":     ms(selfTime(run, children)),
		"plantnet.eval_ms":     ms(o.simBusy),
	}
	// The share of the run an untraced run would spend asking: the replay
	// is tracing work, so it leaves the base.
	if share, ok := ratio(float64(ask), float64(run.dur()-sumDur(replays))); ok {
		o.layers["bo.ask_share"] = share
	}
	return a, nil
}

// timedSearch is the tune.SearchAlgorithm the traced run hands tune.Run: it
// times every Ask and Tell on the wrapped optimizer and, before each Ask,
// replays the optimizer's history through a fresh surrogate to time Fit and
// PredictBatch at that history size.
type timedSearch struct {
	opt     *bo.Optimizer
	space   *space.Space
	factory surrogate.Factory
	cands   [][]float64
	seed    int64

	asks, tells []span
	steps       []replayStep
}

// replayStep is the surrogate replay before one Ask.
type replayStep struct {
	history      int // evaluations the surrogate was fit on
	span         span
	fit, predict time.Duration
}

func (s *timedSearch) Ask() []float64 {
	s.replay()
	t0 := time.Now()
	x := s.opt.Ask()
	s.asks = append(s.asks, span{t0, time.Now()})
	return x
}

func (s *timedSearch) Tell(x []float64, y float64) {
	t0 := time.Now()
	s.opt.Tell(x, y)
	s.tells = append(s.tells, span{t0, time.Now()})
}

// replay fits a surrogate of the optimizer's family on the history told so
// far and scores the candidate set with it. It reads the optimizer only
// through Evaluations and draws from its own RNG, so it cannot change what
// the optimizer proposes.
func (s *timedSearch) replay() {
	t0 := time.Now()
	X, y := s.opt.Evaluations()
	st := replayStep{history: len(y)}
	if len(y) >= 2 {
		U := make([][]float64, len(X))
		for i, x := range X {
			U[i] = s.space.ToUnit(x)
		}
		model := s.factory(rngutil.New(s.seed + int64(len(s.steps))))
		f0 := time.Now()
		if err := model.Fit(U, y); err == nil {
			p0 := time.Now()
			surrogate.PredictBatch(model, s.cands)
			st.fit, st.predict = p0.Sub(f0), time.Since(p0)
		}
	}
	st.span = span{t0, time.Now()}
	s.steps = append(s.steps, st)
}

// --- continuum-suite ---

// continuum is StandardSuite through RunSuite with a checkpoint, followed by
// a resume pass over the finished checkpoint.
type continuum struct {
	suite scenario.Suite
	ckpt  string
}

func setupContinuum(seed int64, tmp string) (campaign, error) {
	s := scenario.StandardSuite(120, 1, rngutil.NewSeeder(seed).Next())
	for _, sc := range s.Scenarios {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	return &continuum{suite: s, ckpt: tmp + "/suite-checkpoint.json"}, nil
}

func (w *continuum) run(traced bool) (*outcome, error) {
	if err := os.Remove(w.ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	opts := scenario.Options{Parallel: workers, CheckpointPath: w.ckpt}
	var starts []time.Time
	var spans []span
	if traced {
		starts = make([]time.Time, len(w.suite.Scenarios))
		spans = make([]span, len(w.suite.Scenarios))
		// RunSuite calls the logger under its own lock.
		opts.Logger = func(event string, i int, _ string) {
			switch event {
			case "started":
				starts[i] = time.Now()
			case "completed", "failed":
				spans[i] = span{starts[i], time.Now()}
			}
		}
	}
	t0 := time.Now()
	sr, err := scenario.RunSuite(w.suite, opts)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	var ckptBytes int64
	if traced {
		fi, err := os.Stat(w.ckpt)
		if err != nil {
			return nil, err
		}
		ckptBytes = fi.Size()
	}
	t2 := time.Now()
	resumed, err := scenario.RunSuite(w.suite, scenario.Options{Parallel: workers, CheckpointPath: w.ckpt})
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	o := &outcome{wall: t1.Sub(t0) + t3.Sub(t2), attempted: len(sr.Results), bestResp: math.Inf(1)}
	for i, r := range sr.Results {
		if sr.Errs[i] != nil {
			o.failed++
			continue
		}
		o.tally.completed += int64(r.Completed)
		o.tally.failed += int64(r.Failed)
		o.tally.retries += int64(r.Retries)
		o.tally.retrySuccesses += int64(r.RetrySuccesses)
		o.bestResp = math.Min(o.bestResp, r.RespMean)
	}
	d := newDigest()
	d.add(sr.Results)
	d.add(sr.Errs)
	o.digest = d.sum()
	// The resume pass must restore every scenario, bit for bit, without
	// running any.
	rd := newDigest()
	rd.add(resumed.Results)
	rd.add(resumed.Errs)
	if resumed.Executed != 0 || resumed.Resumed != len(sr.Results)-o.failed || rd.sum() != o.digest {
		return nil, fmt.Errorf("continuum-suite: resume pass ran %d and restored %d of %d scenarios (digest %s, want %s)",
			resumed.Executed, resumed.Resumed, len(sr.Results), rd.sum(), o.digest)
	}
	if traced {
		campaign := span{t0, t1}
		o.simBusy = sumDur(spans)
		o.layers = map[string]float64{
			"scenario.tail_ms":          ms(tail(campaign, spans, workers)),
			"scenario.resume_ms":        ms(t3.Sub(t2)),
			"scenario.checkpoint_bytes": float64(ckptBytes),
		}
		if f, ok := busyFrac(spans, campaign.dur(), workers); ok {
			o.layers["scenario.busy_frac"] = f
		}
		for i, sc := range w.suite.Scenarios {
			o.layers["scenario."+sc.Name+"_ms"] = ms(spans[i].dur())
		}
	}
	return o, nil
}

// --- edge-fleet-sharded ---

// fleet is the BenchmarkShardedScale topology on the sharded kernel, run
// again and again on one Runner.
type fleet struct {
	rn   *plantnet.Runner
	opts plantnet.RunOptions
	seq  plantnet.RunOptions // the same run on the sequential kernel
}

// fleetOptions is a 10k-gateway edge tier: 64 classes x 160 gateways on
// packetized lossy uplinks with no shared backhaul, 4 replicas and 10,240
// clients, with a 160 ms RTT so the conservative windows are wide.
func fleetOptions(seed int64) plantnet.RunOptions {
	nm := &plantnet.NetworkModel{
		UploadBytes:   80e3,
		ResponseBytes: 8e3,
		Packet:        true,
		MTUBytes:      1500,
	}
	for c := 0; c < 64; c++ {
		nm.Classes = append(nm.Classes, plantnet.NetworkClass{
			Gateways: 160,
			Up:       netem.LinkSpec{DelaySec: 0.010 + float64(c%8)*0.005, RateBps: 8e6, LossPct: 0.5},
			Down:     netem.LinkSpec{DelaySec: 0.010 + float64(c%8)*0.005, RateBps: 10e6},
		})
	}
	cal := plantnet.DefaultCalibration()
	cal.NetworkRTT = 0.16
	return plantnet.RunOptions{
		Pools:    plantnet.Baseline,
		Clients:  10240,
		Network:  nm,
		Replicas: 4,
		Duration: 60,
		Warmup:   20,
		Seed:     seed,
		Shards:   workers,
		Cal:      cal,
	}
}

func setupFleet(seed int64, _ string) (campaign, error) {
	// One options value for every run: the Runner keys its sharded state
	// on the NetworkModel pointer.
	opts := fleetOptions(rngutil.NewSeeder(seed).Next())
	if err := opts.Network.Validate(); err != nil {
		return nil, err
	}
	seq := opts
	seq.Shards = 1
	return &fleet{rn: plantnet.NewRunner(), opts: opts, seq: seq}, nil
}

func (w *fleet) run(traced bool) (*outcome, error) {
	t0 := time.Now()
	m, err := w.rn.Run(w.opts)
	o := &outcome{wall: time.Since(t0), attempted: 1}
	if err != nil {
		return nil, err
	}
	o.tally.addMetrics(m)
	o.bestResp = m.UserResponseTime.Mean
	d := newDigest()
	d.add(m)
	o.digest = d.sum()
	if traced {
		o.simBusy = o.wall
		o.layers = map[string]float64{}
		t1 := time.Now()
		if _, err := w.rn.Run(w.seq); err != nil {
			return nil, err
		}
		o.seqWall = time.Since(t1)
	}
	return o, nil
}
