package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"e2clab/internal/provenance"
	"e2clab/internal/rngutil"
)

// Suite is a named family of scenarios evaluated under one protocol — the
// paper's experiment campaign unit.
type Suite struct {
	Name string `json:"name"`
	// Seed roots every scenario's derived seed; the suite's output is a
	// pure function of (suite spec, seed).
	Seed int64 `json:"seed,omitempty"`
	// DurationSeconds / Repeats apply to scenarios that do not override
	// them (defaults 300 s / 1).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Repeats         int     `json:"repeats,omitempty"`
	// NetworkModel is the default for scenarios that do not set their own
	// ("analytical" or "simulated"; see Scenario.NetworkModel). The
	// resolved per-scenario value is fingerprinted, so changing it
	// invalidates the checkpoint of every affected scenario.
	NetworkModel string `json:"network_model,omitempty"`
	// Shards is the default sharded-kernel worker count for scenarios that
	// do not set their own (see Scenario.Shards; 0 = sequential).
	Shards    int        `json:"shards,omitempty"`
	Scenarios []Scenario `json:"scenarios"`
}

// LoadSuite reads a suite definition from JSON (the declarative form the
// ready-made suites under examples/suite ship in).
func LoadSuite(path string) (*Suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return &s, nil
}

// resolved returns the scenarios with suite-level protocol defaults
// applied, after validating the suite.
func (s Suite) resolved() ([]Scenario, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: suite needs a name")
	}
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("scenario: suite %q has no scenarios", s.Name)
	}
	out := make([]Scenario, len(s.Scenarios))
	seen := make(map[string]bool, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		if sc.DurationSeconds == 0 {
			sc.DurationSeconds = s.DurationSeconds
		}
		if sc.Repeats <= 0 {
			sc.Repeats = s.Repeats
		}
		if sc.NetworkModel == "" {
			sc.NetworkModel = s.NetworkModel
		}
		if sc.Shards == 0 {
			sc.Shards = s.Shards
		}
		sc = sc.withDefaults()
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("scenario: suite %q has duplicate scenario name %q", s.Name, sc.Name)
		}
		seen[sc.Name] = true
		out[i] = sc
	}
	return out, nil
}

// Options configures a suite execution.
type Options struct {
	// Parallel bounds the suite-level worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Workers claim scenarios longest-expected-first: in
	// descending order of a static cost estimate derived from the spec
	// (see expectedCost), ties broken by index, the same order at every
	// Parallel. Results are stored and aggregated by scenario index, so
	// fixed-seed output is bit-identical at any parallelism (the
	// plantnet.RunRepeated pattern).
	Parallel int
	// RepeatParallelism bounds each scenario's internal RunRepeated pool
	// (default 1: the suite pool is the parallelism knob).
	RepeatParallelism int
	// CheckpointPath enables crash-safe resume: every completed Result is
	// saved (atomically, as JSON keyed by scenario fingerprint) after each
	// scenario completes, and a restart skips scenarios already completed
	// under the same spec, seed, and protocol.
	CheckpointPath string
	// ArchiveDir, when set, archives suite provenance: one evaluation
	// record per scenario plus a suite.json manifest.
	ArchiveDir string
	// Logger, when set, receives one event per scenario state change
	// ("resumed", "started", "completed", "failed"). "resumed" events come
	// in index order before any scenario starts; "started" events follow
	// the dispatch order (see Parallel), and index is always the
	// scenario's position in the suite.
	Logger func(event string, index int, name string)
	// InterruptAfter, when positive, stops claiming new scenarios after
	// this many have been executed in this invocation and makes RunSuite
	// return ErrInterrupted — a crash simulation hook for resume tests and
	// demos. The scenarios executed are the first InterruptAfter of the
	// dispatch order that were not resumed, i.e. those expected to take
	// longest. In-flight scenarios still complete and checkpoint.
	InterruptAfter int
}

// ErrInterrupted reports a suite stopped by Options.InterruptAfter.
var ErrInterrupted = errors.New("scenario: suite interrupted")

// SuiteResult aggregates a suite execution in scenario-index order.
type SuiteResult struct {
	Suite string
	// Results holds one entry per scenario, index-aligned; nil where the
	// scenario failed or was not reached before an interruption.
	Results []*Result
	// Errs is index-aligned with Results (nil on success).
	Errs []error
	// Executed counts scenarios actually run in this invocation; Resumed
	// counts those restored from the checkpoint without re-running.
	Executed int
	Resumed  int
}

// suiteMetric is the archived objective's metric name.
const suiteMetric = "user_resp_time"

// fingerprint identifies a (scenario, derived seed) pair in the checkpoint
// so resume only trusts results whose spec, protocol, and seed all match.
func fingerprint(sc Scenario, seed int64) string {
	// The sharded kernel is worker-count invariant (bit-identical results
	// for any Shards >= 2), so the fingerprint collapses the count to its
	// canonical 2: retuning parallelism never invalidates a checkpoint,
	// while switching between the sequential (0) and sharded (>= 2)
	// deterministic families still does.
	if sc.Shards > 2 {
		sc.Shards = 2
	}
	h := fnv.New64a()
	b, _ := json.Marshal(sc)
	h.Write(b)
	fmt.Fprintf(h, "|seed=%d", seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// expectedCost estimates the kernel work of running a resolved scenario. It
// only has to rank scenarios, so its unit is arbitrary: simulated seconds
// (duration x repeats) x an engine-throughput proxy (replicas, each kept
// busy by at least one client) x a per-request transport factor. The factor
// is 1 in analytical mode, the number of link transfers in simulated mode,
// and the number of default-MTU packets of the request and response
// payloads in packet mode. It reads the spec alone, never the name.
func expectedCost(sc Scenario) float64 {
	const mtuBytes = 1500 // the kernel's default packet size
	transport := 1.0
	switch sc.NetworkModel {
	case "simulated":
		transport = float64(2 * len(sc.path()))
	case "packet":
		transport = math.Ceil((sc.UploadBytes + sc.ResponseBytes) / mtuBytes)
	}
	throughput := float64(min(sc.Replicas, sc.Clients()))
	return sc.DurationSeconds * float64(sc.Repeats) * throughput * transport
}

// dispatchOrder lists scenario indices longest-expected-first: descending
// expectedCost, ties broken by index. Finishing a campaign is a
// list-scheduling problem, and starting the longest jobs first bounds the
// makespan within 4/3 of optimal (Graham, SIAM J. Appl. Math. 1969), where
// index order can leave one worker running the largest scenario alone.
func dispatchOrder(scenarios []Scenario) []int {
	cost := make([]float64, len(scenarios))
	order := make([]int, len(scenarios))
	for i, sc := range scenarios {
		cost[i], order[i] = expectedCost(sc), i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}

// RunSuite executes every scenario of the suite on a bounded worker pool
// with longest-expected-first dispatch, ordered aggregation, optional
// crash-safe checkpointing, and optional provenance archiving. See Options
// for the dispatch order and the determinism and resume contracts.
//
//simlint:ordered per-scenario seeds are derived before the pool starts and workers write results[i]/errs[i] by claimed index; aggregation walks index order (suite_test pins parallel == sequential)
func RunSuite(s Suite, opts Options) (*SuiteResult, error) {
	scenarios, err := s.resolved()
	if err != nil {
		return nil, err
	}
	n := len(scenarios)

	// All per-scenario seeds derive from the suite seed up front, so a
	// scenario's result does not depend on which worker runs it or on what
	// completed before it.
	seeder := rngutil.NewSeeder(s.Seed + 17)
	seeds := make([]int64, n)
	fps := make([]string, n)
	for i := range seeds {
		seeds[i] = seeder.Next()
		fps[i] = fingerprint(scenarios[i], seeds[i])
	}

	results := make([]*Result, n)
	errs := make([]error, n)
	done := make(map[string]*Result, n) // completed results by fingerprint
	resumed := 0

	// Resume: trust only stored results whose fingerprint still matches
	// the scenario spec + seed + protocol.
	if opts.CheckpointPath != "" {
		prev, lerr := loadCheckpoint(opts.CheckpointPath, s.Name)
		if lerr != nil {
			return nil, fmt.Errorf("scenario: checkpoint %s unusable: %w", opts.CheckpointPath, lerr)
		}
		for i, sc := range scenarios {
			raw, ok := prev[fps[i]]
			var r *Result
			if !ok || json.Unmarshal(raw, &r) != nil || r == nil {
				continue // absent, undecodable, or null: re-run
			}
			r.Index, r.Name = i, sc.Name
			results[i] = r
			done[fps[i]] = r
			resumed++
			if opts.Logger != nil {
				opts.Logger("resumed", i, sc.Name)
			}
		}
	}

	var archive *provenance.Archive
	if opts.ArchiveDir != "" {
		archive, err = provenance.NewArchive(opts.ArchiveDir)
		if err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex // guards results, errs, done, checkpoint writes

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	order := dispatchOrder(scenarios)
	var next, started atomic.Int64
	var executed atomic.Int64
	var saveErr atomic.Value // first checkpoint-write failure
	interrupted := false
	runOne := func(i int) {
		sc := scenarios[i]
		mu.Lock()
		if opts.Logger != nil {
			opts.Logger("started", i, sc.Name)
		}
		mu.Unlock()
		r, rerr := sc.Run(seeds[i], opts.RepeatParallelism)
		mu.Lock()
		defer mu.Unlock()
		executed.Add(1)
		if rerr != nil {
			errs[i] = rerr
			if opts.Logger != nil {
				opts.Logger("failed", i, sc.Name)
			}
			return
		}
		r.Index = i
		results[i] = r
		done[fps[i]] = r
		if opts.Logger != nil {
			opts.Logger("completed", i, sc.Name)
		}
		if opts.CheckpointPath != "" {
			if err := saveCheckpoint(opts.CheckpointPath, s.Name, done); err != nil {
				saveErr.CompareAndSwap(nil, err)
			}
		}
	}

	claim := func() int {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return -1
			}
			i := order[k]
			if results[i] != nil {
				continue // resumed from checkpoint; never re-run
			}
			// Atomic add-then-compare: at most InterruptAfter claims
			// succeed even with a parallel pool (a worker that lands past
			// the limit abandons its index — it counts as never reached).
			if opts.InterruptAfter > 0 && started.Add(1) > int64(opts.InterruptAfter) {
				return -1
			}
			return i
		}
	}

	if workers <= 1 {
		for i := claim(); i >= 0; i = claim() {
			runOne(i)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := claim(); i >= 0; i = claim() {
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	if err, _ := saveErr.Load().(error); err != nil {
		return nil, fmt.Errorf("scenario: saving checkpoint: %w", err)
	}
	if opts.InterruptAfter > 0 {
		for i := range results {
			if results[i] == nil && errs[i] == nil {
				interrupted = true // some scenario was never reached
				break
			}
		}
	}

	// Ordered aggregation: everything below walks scenarios in index
	// order, so the output is independent of worker scheduling.
	out := &SuiteResult{
		Suite:    s.Name,
		Results:  results,
		Errs:     errs,
		Executed: int(executed.Load()),
		Resumed:  resumed,
	}
	if interrupted {
		return out, ErrInterrupted
	}
	if archive != nil {
		if err := archiveSuite(archive, s, scenarios, seeds, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// archiveSuite stores suite provenance: one evaluation record per completed
// scenario (its deployment, netem rules, and aggregate metrics) plus a
// suite.json manifest with the full declarative spec and root seed.
func archiveSuite(a *provenance.Archive, s Suite, scenarios []Scenario, seeds []int64, out *SuiteResult) error {
	for i, r := range out.Results {
		if r == nil {
			continue
		}
		sc := scenarios[i]
		dep := &provenance.DeploymentRecord{
			Configuration: map[string]string{
				"engine_layer":  sc.withDefaults().EngineLayer,
				"network_model": sc.networkModelName(),
				"pools":         sc.withDefaults().Pools.String(),
				"workload":      sc.Workload.kind(),
				"seed":          fmt.Sprint(seeds[i]),
			},
		}
		if cfg, err := sc.Deployment(); err == nil {
			for _, rule := range cfg.Network {
				dep.NetworkRules = append(dep.NetworkRules,
					fmt.Sprintf("%s->%s delay=%gms rate=%gGbps loss=%g%% sym=%v",
						rule.Src, rule.Dst, rule.DelayMS, rule.RateGbps, rule.LossPct, rule.Symmetric))
			}
		}
		rec := provenance.EvaluationRecord{
			Index:      i,
			Config:     map[string]float64{"gateways": float64(r.Gateways), "clients": float64(r.Clients)},
			Objective:  r.RespMean,
			Metric:     suiteMetric,
			Deployment: dep,
			Extra: map[string]float64{
				"engine_resp_mean": r.EngineResp.Mean,
				"net_overhead_sec": r.NetOverheadSec,
				"resp_p95":         r.RespP95,
				"throughput":       r.Throughput,
				"completed":        float64(r.Completed),
			},
		}
		if err := a.Finalize(rec); err != nil {
			return err
		}
	}
	manifest, err := json.MarshalIndent(struct {
		Suite    Suite   `json:"suite"`
		Seeds    []int64 `json:"scenario_seeds"`
		Executed int     `json:"executed"`
		Resumed  int     `json:"resumed"`
	}{s, seeds, out.Executed, out.Resumed}, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: marshal suite manifest: %w", err)
	}
	return a.WriteBlob("suite.json", manifest)
}
