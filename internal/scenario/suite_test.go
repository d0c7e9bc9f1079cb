package scenario

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"e2clab/internal/config"
	"e2clab/internal/plantnet"
)

// testSuite is a small but diverse fixed-seed suite: topology sweep,
// degradation, heterogeneous mix, fog placement, and a shaped workload —
// five scenarios, short durations so the whole suite runs in tens of
// milliseconds.
func testSuite() Suite {
	base := Scenario{
		Name:     "base",
		Replicas: 1,
		Pools:    plantnet.Baseline,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 10, DelayMS: 2, RateGbps: 10},
		},
		ClientsPerGateway: 2,
	}
	scenarios := GatewaySweep(base, []int{10, 20})
	scenarios = append(scenarios, DegradationSweep(base, []Degradation{
		{Name: "lossy", Rules: []config.NetworkRule{
			{Src: "edge", Dst: "fog", DelayMS: 30, LossPct: 5, Symmetric: true},
		}},
	})...)
	fog := base
	fog.Name = "fog-offload"
	fog.EngineLayer = "fog"
	scenarios = append(scenarios, fog)
	scenarios = append(scenarios, ShapeSweep(base, []Shape{{Kind: "bursty", Phases: 2}})...)
	return Suite{
		Name:            "test-suite",
		Seed:            7,
		DurationSeconds: 60,
		Repeats:         2,
		Scenarios:       scenarios,
	}
}

// bits flattens every numeric Result field, nested ones included, into raw
// integers and float bits for bit-exact comparison.
func bits(r *Result) []uint64 {
	var out []uint64
	walkFields(reflect.ValueOf(r).Elem(), "", func(_ string, f reflect.Value) {
		switch {
		case f.CanInt():
			out = append(out, uint64(f.Int()))
		case f.CanFloat():
			out = append(out, math.Float64bits(f.Float()))
		}
	})
	return out
}

func mustRun(t *testing.T, s Suite, opts Options) *SuiteResult {
	t.Helper()
	sr, err := RunSuite(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sr.Errs {
		if e != nil {
			t.Fatalf("scenario %d failed: %v", i, e)
		}
	}
	return sr
}

func TestSuiteParallelMatchesSequentialBitExact(t *testing.T) {
	s := testSuite()
	if len(s.Scenarios) < 5 {
		t.Fatalf("test suite has %d scenarios, want >= 5", len(s.Scenarios))
	}
	seq := mustRun(t, s, Options{Parallel: 1})
	par := mustRun(t, s, Options{Parallel: 4})
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if !reflect.DeepEqual(bits(seq.Results[i]), bits(par.Results[i])) {
			t.Errorf("scenario %d (%s): parallel result differs from sequential\nseq: %+v\npar: %+v",
				i, seq.Results[i].Name, seq.Results[i], par.Results[i])
		}
	}
	// The rendered comparison table — the user-facing aggregate — must be
	// byte-identical too.
	if ComparisonTable(seq).String() != ComparisonTable(par).String() {
		t.Error("comparison tables differ between sequential and parallel runs")
	}
}

func TestSuiteInterruptResumeSkipsCompleted(t *testing.T) {
	s := testSuite()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "suite.json")

	// Reference: one uninterrupted run, no checkpoint.
	ref := mustRun(t, s, Options{Parallel: 1})

	// Kill the suite after 2 scenarios.
	const killAfter = 2
	partial, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: ckpt, InterruptAfter: killAfter})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if partial.Executed != killAfter {
		t.Fatalf("executed %d scenarios before the kill, want %d", partial.Executed, killAfter)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before the kill: %v", err)
	}

	// Resume: completed scenarios must be skipped, the rest executed, and
	// the final aggregates bit-identical to the uninterrupted run.
	var events []string
	resumed, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: ckpt,
		Logger: func(ev string, i int, name string) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != killAfter {
		t.Errorf("resumed %d scenarios from checkpoint, want %d", resumed.Resumed, killAfter)
	}
	if want := len(s.Scenarios) - killAfter; resumed.Executed != want {
		t.Errorf("re-ran %d scenarios, want %d (completed ones must not re-run)", resumed.Executed, want)
	}
	for i := range ref.Results {
		if !reflect.DeepEqual(bits(ref.Results[i]), bits(resumed.Results[i])) {
			t.Errorf("scenario %d (%s): resumed result differs from uninterrupted run",
				i, ref.Results[i].Name)
		}
	}
	if ComparisonTable(ref).String() != ComparisonTable(resumed).String() {
		t.Error("comparison tables differ between uninterrupted and resumed runs")
	}

	// A third run over the now-complete checkpoint re-runs nothing.
	again, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Resumed != len(s.Scenarios) {
		t.Errorf("complete checkpoint: executed=%d resumed=%d, want 0/%d",
			again.Executed, again.Resumed, len(s.Scenarios))
	}
}

func TestSuiteInterruptBoundHoldsUnderParallelPool(t *testing.T) {
	// The InterruptAfter claim bound is atomic: even with several workers
	// racing, no more than InterruptAfter scenarios execute.
	s := testSuite()
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	partial, err := RunSuite(s, Options{Parallel: 3, CheckpointPath: ckpt, InterruptAfter: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if partial.Executed != 2 {
		t.Errorf("executed %d scenarios, want exactly 2", partial.Executed)
	}
	// Resume with a parallel pool still re-runs only the remainder and
	// matches the uninterrupted aggregates bit-exactly.
	ref := mustRun(t, s, Options{Parallel: 1})
	resumed := mustRun(t, s, Options{Parallel: 3, CheckpointPath: ckpt})
	if resumed.Executed+resumed.Resumed != len(s.Scenarios) || resumed.Resumed != 2 {
		t.Errorf("resume executed=%d resumed=%d", resumed.Executed, resumed.Resumed)
	}
	for i := range ref.Results {
		if !reflect.DeepEqual(bits(ref.Results[i]), bits(resumed.Results[i])) {
			t.Errorf("scenario %d: parallel resumed result differs from sequential uninterrupted run", i)
		}
	}
}

func TestSuiteCheckpointInvalidatedBySeedChange(t *testing.T) {
	s := testSuite()
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})

	// Same suite, different seed: every fingerprint changes, nothing may
	// be resumed from the stale checkpoint.
	s.Seed = 8
	sr := mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 0 || sr.Executed != len(s.Scenarios) {
		t.Errorf("stale checkpoint trusted: executed=%d resumed=%d", sr.Executed, sr.Resumed)
	}
}

func TestSuiteUnreachableScenarioFails(t *testing.T) {
	// A gateway uplink composing with a degradation rule to 100% loss is
	// unreachable: expected transfer time is +Inf (netem fix), and the
	// scenario must fail rather than report a finite response time.
	sc := Scenario{
		Name:     "dead-uplink",
		Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: 10, LossPct: 40}},
		Degradation: []config.NetworkRule{
			{Src: "edge", Dst: "fog", LossPct: 100, Symmetric: true},
		},
		DurationSeconds: 60,
	}
	if !math.IsInf(sc.NetworkOverheadSeconds(), 1) {
		t.Fatalf("overhead = %v, want +Inf", sc.NetworkOverheadSeconds())
	}
	if _, err := sc.Run(1, 1); err == nil {
		t.Fatal("unreachable scenario ran successfully")
	}
	// In a suite it fails without sinking the other scenarios.
	s := Suite{Name: "mixed", Seed: 3, DurationSeconds: 60,
		Scenarios: []Scenario{sc, {
			Name:            "alive",
			Gateways:        []GatewayClass{{Name: "g", Count: 2, DelayMS: 2, RateGbps: 1}},
			DurationSeconds: 60,
		}}}
	sr, err := RunSuite(s, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Errs[0] == nil {
		t.Error("unreachable scenario did not fail")
	}
	if sr.Results[1] == nil || sr.Errs[1] != nil {
		t.Errorf("healthy scenario sunk by unreachable one: %v", sr.Errs[1])
	}
	// The comparison table renders the failure in place of metrics (the
	// ragged-row form the export fix guarantees renders).
	out := ComparisonTable(sr).String()
	if out == "" {
		t.Error("comparison table empty")
	}
}

// TestScenarioValidateRejectsBadSizes: payload sizes and the duration
// must be finite and non-negative; 0 still selects the default.
func TestScenarioValidateRejectsBadSizes(t *testing.T) {
	base := Scenario{
		Name:     "sizes",
		Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: 2, RateGbps: 1}},
	}
	for _, tc := range []struct {
		name  string
		set   func(*Scenario)
		valid bool
	}{
		{"defaults", func(*Scenario) {}, true},
		{"explicit sizes", func(s *Scenario) { s.UploadBytes, s.ResponseBytes, s.DurationSeconds = 1e5, 1e3, 30 }, true},
		{"negative upload", func(s *Scenario) { s.UploadBytes = -1 }, false},
		{"NaN upload", func(s *Scenario) { s.UploadBytes = math.NaN() }, false},
		{"infinite upload", func(s *Scenario) { s.UploadBytes = math.Inf(1) }, false},
		{"negative response", func(s *Scenario) { s.ResponseBytes = -5e4 }, false},
		{"NaN response", func(s *Scenario) { s.ResponseBytes = math.NaN() }, false},
		{"infinite response", func(s *Scenario) { s.ResponseBytes = math.Inf(-1) }, false},
		{"negative duration", func(s *Scenario) { s.DurationSeconds = -60 }, false},
		{"NaN duration", func(s *Scenario) { s.DurationSeconds = math.NaN() }, false},
		{"infinite duration", func(s *Scenario) { s.DurationSeconds = math.Inf(1) }, false},
	} {
		sc := base
		tc.set(&sc)
		err := sc.Validate()
		if (err == nil) != tc.valid {
			t.Errorf("%s: Validate() = %v, want valid=%v", tc.name, err, tc.valid)
		}
		if tc.valid {
			continue
		}
		// A suite does not paper over the bad value with its own default.
		s := Suite{Name: "bad", DurationSeconds: 60, Scenarios: []Scenario{sc}}
		if _, err := s.resolved(); err == nil {
			t.Errorf("%s: suite resolved the invalid scenario", tc.name)
		}
	}
}

// TestScenarioNothingCompletedNamesCause: a 1 bit/s uplink completes no
// request within the run, and the error says so with the failure counts
// rather than blaming the duration.
func TestScenarioNothingCompletedNamesCause(t *testing.T) {
	sc := Scenario{
		Name:            "trickle-uplink",
		NetworkModel:    "simulated",
		Gateways:        []GatewayClass{{Name: "g", Count: 2, DelayMS: 10, RateGbps: 1e-9}},
		DurationSeconds: 60,
	}
	_, err := sc.Run(1, 1)
	if err == nil {
		t.Fatal("scenario with a 1 bit/s uplink ran successfully")
	}
	want := `scenario "trickle-uplink": no request completed (0 failed, 0 arrivals dropped)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

func TestScenarioDeploymentLowersToConfig(t *testing.T) {
	sc := PaperScenario()
	cfg, err := sc.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Layers) != 3 {
		t.Fatalf("layers = %d, want 3 (edge/fog/cloud)", len(cfg.Layers))
	}
	if cfg.Layers[0].Services[0].Quantity != 40 {
		t.Errorf("gateway quantity = %d, want 40", cfg.Layers[0].Services[0].Quantity)
	}
	// Fog placement drops the cloud layer.
	sc.EngineLayer = "fog"
	cfg, err = sc.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Layers) != 2 {
		t.Fatalf("fog placement layers = %d, want 2", len(cfg.Layers))
	}
}

func TestGenerators(t *testing.T) {
	base := PaperScenario()
	sweep := GatewaySweep(base, []int{10, 40, 80})
	if len(sweep) != 3 || sweep[0].TotalGateways() != 10 || sweep[2].TotalGateways() != 80 {
		t.Errorf("gateway sweep wrong: %+v", sweep)
	}
	if base.TotalGateways() != 40 {
		t.Error("generator mutated its base scenario")
	}
	// Multi-class bases must hit the requested total exactly (largest-
	// remainder apportionment), not truncate each class independently.
	hetero := base
	hetero.Gateways = []GatewayClass{
		{Name: "fiber", Count: 24}, {Name: "lte", Count: 14}, {Name: "sat", Count: 2},
	}
	for _, total := range []int{20, 50, 77} {
		got := GatewaySweep(hetero, []int{total})[0]
		if got.TotalGateways() != total {
			t.Errorf("hetero sweep to %d gateways produced %d (%+v)",
				total, got.TotalGateways(), got.Gateways)
		}
	}
	// The at-least-one-per-class floor is the documented exception to
	// exactness: at total=10 the sat class's share rounds to zero and is
	// floored to 1.
	if got := GatewaySweep(hetero, []int{10})[0]; got.TotalGateways() != 11 {
		t.Errorf("floored sweep produced %d gateways (%+v)", got.TotalGateways(), got.Gateways)
	}
	for _, s := range PlacementSweep(base) {
		if err := s.Validate(); err != nil {
			t.Errorf("placement %q invalid: %v", s.Name, err)
		}
	}
	mixes := MixSweep(base, map[string][]GatewayClass{
		"m1": {{Name: "a", Count: 1}},
		"m2": {{Name: "b", Count: 2}},
	})
	if len(mixes) != 2 || mixes[0].Name != "paper-42-nodes-m1" {
		t.Errorf("mix sweep wrong: %+v", mixes)
	}
	deg := DegradationSweep(base, []Degradation{{Name: "x",
		Rules: []config.NetworkRule{{Src: "fog", Dst: "cloud", DelayMS: 9}}}})
	if len(deg) != 1 || len(deg[0].Degradation) != 1 {
		t.Errorf("degradation sweep wrong: %+v", deg)
	}
	if len(base.Degradation) != 0 {
		t.Error("degradation sweep mutated its base")
	}
}

func TestShapeExpansion(t *testing.T) {
	if got := (Shape{}).Expand(80, 300); len(got) != 1 || got[0].Clients != 80 || got[0].DurationSeconds != 300 {
		t.Errorf("constant shape = %+v", got)
	}
	bursty := Shape{Kind: "bursty", Phases: 4, BaseFrac: 0.25}.Expand(80, 400)
	if len(bursty) != 4 {
		t.Fatalf("bursty phases = %d", len(bursty))
	}
	if bursty[0].Clients != 20 || bursty[1].Clients != 80 {
		t.Errorf("bursty alternation wrong: %+v", bursty)
	}
	diurnal := Shape{Kind: "diurnal", Phases: 8}.Expand(100, 800)
	if len(diurnal) != 8 {
		t.Fatalf("diurnal phases = %d", len(diurnal))
	}
	if diurnal[0].Clients >= diurnal[4].Clients {
		t.Errorf("diurnal trough/crest wrong: %+v", diurnal)
	}
	if err := (Shape{Kind: "square"}).Validate(); err == nil {
		t.Error("unknown shape kind accepted")
	}
}

func TestLoadSuiteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.json")
	body := `{
  "name": "mini",
  "seed": 5,
  "duration_seconds": 60,
  "scenarios": [
    {"name": "a", "gateways": [{"name": "g", "count": 2, "delay_ms": 2}]},
    {"name": "b", "gateways": [{"name": "g", "count": 4}],
     "workload": {"kind": "diurnal", "phases": 2}}
  ]
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini" || len(s.Scenarios) != 2 || s.Scenarios[1].Workload.Kind != "diurnal" {
		t.Errorf("loaded suite = %+v", s)
	}
	if _, err := s.resolved(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"name": "x", "bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSuite(path); err == nil {
		t.Error("unknown suite field accepted")
	}
}

func TestStandardSuiteValidates(t *testing.T) {
	s := StandardSuite(60, 1, 42)
	if len(s.Scenarios) < 5 {
		t.Fatalf("standard suite ships %d scenarios, want >= 5", len(s.Scenarios))
	}
	if _, err := s.resolved(); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sc := range s.Scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		names[sc.Name] = true
	}
}

func TestSuiteArchiveProvenance(t *testing.T) {
	s := Suite{Name: "arch", Seed: 2, DurationSeconds: 60,
		Scenarios: []Scenario{{
			Name:     "only",
			Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: 2, RateGbps: 1}},
		}}}
	dir := t.TempDir()
	mustRun(t, s, Options{Parallel: 1, ArchiveDir: dir})
	if _, err := os.Stat(filepath.Join(dir, "suite.json")); err != nil {
		t.Errorf("suite manifest missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "optimization_0000", "evaluation.json")); err != nil {
		t.Errorf("per-scenario record missing: %v", err)
	}
}

// dispatchSuite is testSuite with scenarios whose expected costs differ:
// a simulated network, a second replica and a single repeat move three of
// them off the common estimate, while the first two still tie.
func dispatchSuite() Suite {
	s := testSuite()
	s.Scenarios[2].NetworkModel = "simulated"
	s.Scenarios[3].Repeats = 1
	s.Scenarios[4].Replicas = 2
	return s
}

// wantDispatch is the claim order the suite must follow: descending
// expectedCost, ties broken by index.
func wantDispatch(t *testing.T, s Suite) []int {
	t.Helper()
	scenarios, err := s.resolved()
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(scenarios))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return expectedCost(scenarios[order[a]]) > expectedCost(scenarios[order[b]])
	})
	return order
}

func TestSuiteDispatchLongestExpectedFirst(t *testing.T) {
	s := dispatchSuite()
	want := wantDispatch(t, s)
	if sort.IntsAreSorted(want) {
		t.Fatalf("fixture dispatches in index order %v; it cannot tell the orders apart", want)
	}
	var started []int
	mustRun(t, s, Options{Parallel: 1, Logger: func(ev string, i int, _ string) {
		if ev == "started" {
			started = append(started, i)
		}
	}})
	if !reflect.DeepEqual(started, want) {
		t.Errorf("started order %v, want %v (descending estimate, ties by index)", started, want)
	}
}

func TestSuiteDispatchBitIdenticalAcrossParallel(t *testing.T) {
	s := dispatchSuite()
	ref := mustRun(t, s, Options{Parallel: 1})
	for _, p := range []int{2, 3} {
		got := mustRun(t, s, Options{Parallel: p})
		for i := range ref.Results {
			if !reflect.DeepEqual(bits(ref.Results[i]), bits(got.Results[i])) || !reflect.DeepEqual(ref.Errs[i], got.Errs[i]) {
				t.Errorf("Parallel %d: scenario %d (%s) differs from Parallel 1", p, i, ref.Results[i].Name)
			}
		}
	}
}

func TestSuiteInterruptRunsHighestEstimates(t *testing.T) {
	s := dispatchSuite()
	want := wantDispatch(t, s)
	ref := mustRun(t, s, Options{Parallel: 1})
	const k = 2
	for _, p := range []int{1, 3} {
		ckpt := filepath.Join(t.TempDir(), "suite.json")
		partial, err := RunSuite(s, Options{Parallel: p, CheckpointPath: ckpt, InterruptAfter: k})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("Parallel %d: err = %v, want ErrInterrupted", p, err)
		}
		var ran []int
		for i, r := range partial.Results {
			if r != nil {
				ran = append(ran, i)
			}
		}
		top := slices.Sorted(slices.Values(want[:k]))
		if !reflect.DeepEqual(ran, top) {
			t.Errorf("Parallel %d: InterruptAfter %d ran scenarios %v, want the highest estimates %v", p, k, ran, top)
		}
		resumed := mustRun(t, s, Options{Parallel: p, CheckpointPath: ckpt})
		if resumed.Resumed != k || resumed.Executed != len(s.Scenarios)-k {
			t.Errorf("Parallel %d: resume executed=%d resumed=%d", p, resumed.Executed, resumed.Resumed)
		}
		for i := range ref.Results {
			if !reflect.DeepEqual(bits(ref.Results[i]), bits(resumed.Results[i])) {
				t.Errorf("Parallel %d: scenario %d differs after interrupt and resume", p, i)
			}
		}
	}
}

func TestExpectedCost(t *testing.T) {
	std, err := StandardSuite(120, 1, 1).resolved()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := LoadSuite(filepath.Join("..", "..", "examples", "suite", "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	exScenarios, err := ex.resolved()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range append(slices.Clone(std), exScenarios...) {
		c := expectedCost(sc)
		if !(c > 0) || math.IsInf(c, 0) {
			t.Errorf("%s: estimate %v, want finite and positive", sc.Name, c)
		}
		renamed := sc
		renamed.Name = "renamed-" + sc.Name
		if expectedCost(renamed) != c {
			t.Errorf("%s: estimate depends on the name", sc.Name)
		}
	}
	if first := std[dispatchOrder(std)[0]]; first.NetworkModel != "packet" {
		t.Errorf("StandardSuite dispatches %s (%s) first, want the packet-mode scenario",
			first.Name, first.networkModelName())
	}
}
