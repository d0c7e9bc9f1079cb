#!/usr/bin/env bash
# verify.sh — the tier-1 verification recipe (see ROADMAP.md). Beyond the
# build and full test suite, it vets the tree, runs simlint (the custom
# static-analysis gate machine-enforcing the determinism / RNG-discipline /
# zero-alloc / kernel-synchronization standing invariants), race-checks the packages with goroutine-parallel paths
# (surrogate worker pool, bo batch scoring, plantnet repeated-run pool —
# including the simulated-network link, fault-schedule, resilience-policy,
# and piecewise-arrival code it drives — scenario suite runner, tune's
# concurrent trial executor, space transforms it exercises), and runs the
# allocation-regression gate: the kernel's steady-state zero-alloc
# contracts (sim/alloc_test.go) must hold, or the freelist/calendar work of
# PR 3 has silently rotted. For wall-clock trends, diff bench snapshots
# with scripts/bench_compare.sh (flags >10% ns/op or allocs/op growth
# between two scripts/bench.sh outputs) and render the committed history
# with scripts/bench_report.sh.
#
# Each gate's wall-clock time is reported at exit (also on failure) so a
# creeping gate shows up in CI logs before it becomes the bottleneck. When
# the simlint gate fails, its findings are re-emitted as JSON to
# $SIMLINT_JSON (default simlint-findings.json) for CI artifact upload.
set -euo pipefail
cd "$(dirname "$0")/.."

gate_names=()
gate_secs=()

timings() {
    local i
    echo
    echo "gate timings:"
    for i in "${!gate_names[@]}"; do
        printf '  %-24s %4ss\n' "${gate_names[$i]}" "${gate_secs[$i]}"
    done
}
trap timings EXIT

gate() {
    local name="$1" start rc=0
    shift
    start=$SECONDS
    "$@" || rc=$?
    gate_names+=("$name")
    gate_secs+=($((SECONDS - start)))
    if [ "$rc" -ne 0 ]; then
        echo "verify: gate '$name' failed (exit $rc)" >&2
        exit "$rc"
    fi
}

# Static-analysis gate: exits 1 on any unsuppressed finding. On failure the
# findings are preserved machine-readably for the CI artifact step.
simlint_gate() {
    if ! go run ./cmd/simlint; then
        local out="${SIMLINT_JSON:-simlint-findings.json}"
        go run ./cmd/simlint -json >"$out" 2>/dev/null || true
        echo "simlint: findings written to $out" >&2
        return 1
    fi
}

race_pkgs=(
    ./internal/surrogate/... ./internal/bo/... ./internal/fault/...
    ./internal/resilience/... ./internal/plantnet/... ./internal/scenario/...
    ./internal/sim/... ./internal/workload/... ./internal/tune/...
    ./internal/space/...
)

gate build go build ./...
gate vet go vet ./...
# The campaign benchmark is a separate module (campaignbench/go.mod), so the
# root ./... never builds it; vet and test it explicitly so an API change in
# the library cannot break the benchmark unseen.
gate bench-vet go -C campaignbench vet ./...
gate bench-test go -C campaignbench test ./...
gate simlint simlint_gate
gate test go test ./...
gate race go test -race "${race_pkgs[@]}"
# Chaos gate: the faulted and policied campaign paths — churn/crash/flap
# hooks, resilience checkpoints (retry/hedge/breaker/failover), and the
# availability sweep — plus the Runner-reuse tests (idle-list Runners
# shared across configurations and goroutines) re-run under the race
# detector with a real (uncached) pass, since these exercise the parallel
# suite runner and repeated-run pool against mutated engine state.
gate chaos-race go test -race -count=1 -run 'Fault|Chaos|Resilien|Availability|Flap|Crash|Churn|Reuse|Idle|Digest' \
    ./internal/plantnet/ ./internal/scenario/
# Allocation-regression gate: -count=1 forces a real (uncached) run. The
# sharded coordinator's steady-state window loop carries the same contract
# (TestZeroAllocShardWindows), a warm package-level plantnet.RunRepeated
# stays under a stated per-call bound (TestZeroAllocWarmRunRepeated), and a
# request node costs at most three allocations and 248 bytes
# (TestRequestNodeAllocs).
gate zero-alloc go test -run 'TestZeroAlloc|TestRequestNodeAllocs' -count=1 ./internal/sim/ ./internal/sim/shard/ ./internal/plantnet/
echo "verify OK"
