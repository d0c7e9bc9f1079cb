#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the root
# of a checkout:
#
#   bash campaignbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, the binary and the benchmark's scratch files all stay in
# .bench_build under the checkout. Nothing is downloaded: the module needs
# only the standard library and the repository beside it.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
CAMPAIGNBENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
export CAMPAIGNBENCH_GIT_SHA
go -C "$root/campaignbench" build -o "$build/campaignbench" .
exec "$build/campaignbench" "$@"
