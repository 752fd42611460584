#!/usr/bin/env bash
# Builds the slot-budget benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload paper15k-bare --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh -all          # every workload, every check
#   bash bench/run.sh -selfcheck    # noise against BENCHMARK.json's bounds
#
# Everything it writes stays inside the checkout: the binary and the Go
# build cache under .bench_build/, WAL and journal files under .bench_state/
# (removed when a run ends).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/slotbench" .)
cd "$root"
exec "$build/slotbench" -state "$root/.bench_state" "$@"
