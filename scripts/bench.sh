#!/usr/bin/env bash
# bench.sh — run the perf-trajectory benchmark suite and emit a JSON
# snapshot (BENCH_<git-sha>.json by default) so successive PRs can track
# wall-clock AND allocation numbers for the hot paths: the event calendar,
# processor sharing and pool churn of the sim kernel, forest fit, batch
# prediction, the ask/tell loop, and the end-to-end Listing 1 optimization
# benchmark. Compare two snapshots with scripts/bench_compare.sh.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

# A snapshot of uncommitted changes is named and stamped "<sha>-dirty".
out="${1:-BENCH_$(git describe --always --dirty 2>/dev/null || echo local).json}"
benchtime="${BENCHTIME:-3x}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

run() { # run <package> <bench regexp> [benchtime]
    go test -run '^$' -bench "$2" -benchtime "${3:-$benchtime}" -benchmem "$1" 2>/dev/null |
        grep -E '^Benchmark' || true
}

{
    # One sim kernel op is a single event or job, so these run a fixed
    # 200k ops instead of the campaign benchmarks' few iterations.
    run ./internal/sim/ 'BenchmarkEventThroughput|BenchmarkProcessorSharing|BenchmarkPoolGrantRelease|BenchmarkZeroDelayFanout|BenchmarkRescheduleChurn' 200000x
    run ./internal/surrogate/ 'BenchmarkForestFit|BenchmarkPredictBatch'
    run ./internal/bo/ 'BenchmarkAskLoop'
    run ./internal/scenario/ 'BenchmarkSuite|BenchmarkNetworkPath|BenchmarkFaultedCampaign|BenchmarkResilientCampaign'
    run ./internal/plantnet/ 'BenchmarkShardedScale'
    run . 'BenchmarkTable3Optimization|BenchmarkTable2Baseline'
} >"$tmp"

# Convert benchmark lines to JSON: the name, iterations, and each of the
# `<value> <unit>` pairs we track (ns/op, B/op, allocs/op, the sim kernel
# benchmarks' exact events fired per op, the sharded benchmark's exact
# windows and routed messages per op, and the campaign benchmarks' scenario
# count, so readers can price campaigns per scenario).
{
    printf '{\n'
    printf '  "git": "%s",\n' "$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}"
    printf '  "benchmarks": [\n'
    awk '
        {
            name = $1
            sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
            iters = $2
            ns = "null"; bytes = "null"; allocs = "null"; scenarios = "null"; events = "null"
            windows = "null"; msgs = "null"
            for (i = 3; i < NF; i++) {
                if ($(i+1) == "ns/op") ns = $i
                else if ($(i+1) == "B/op") bytes = $i
                else if ($(i+1) == "allocs/op") allocs = $i
                else if ($(i+1) == "scenarios") scenarios = $i
                else if ($(i+1) == "events/op") events = $i
                else if ($(i+1) == "windows/op") windows = $i
                else if ($(i+1) == "msgs/op") msgs = $i
            }
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
                name, iters, ns, bytes, allocs
            if (scenarios != "null") printf ", \"scenarios\": %s", scenarios
            if (events != "null") printf ", \"events_per_op\": %s", events
            if (windows != "null") printf ", \"windows_per_op\": %s", windows
            if (msgs != "null") printf ", \"msgs_per_op\": %s", msgs
            printf "}"
        }
        END { if (n) printf "\n" }
    ' "$tmp"
    printf '  ]\n}\n'
} >"$out"

echo "wrote $out"
cat "$out"
