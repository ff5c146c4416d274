#!/usr/bin/env bash
# Builds coconut-perf from the source tree it sits in and runs it with the
# given arguments, for example:
#
#   bash cmd/coconut-perf/run.sh --workload paper-grid --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the module cache and
# the binary all live under $CARGO_TARGET_DIR (default .bench_build) in the
# working directory, so nothing outside the checkout is written. Build
# output goes to standard error; standard output is the benchmark's alone.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/cmd/coconut-perf" && go build -o "$out/coconut-perf" .) >&2
exec "$out/coconut-perf" "$@"
