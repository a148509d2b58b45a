#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it. Run from the root of
# the repository; every argument is passed through, e.g.
#
#   bash benchmark/run.sh --workload flood-dense --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/
# in the working directory, and no module is fetched: the benchmark module
# needs only the standard library and the repository itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$(dirname "$0")" && go build -o "$build/wakebench" .)
exec "$build/wakebench" "$@"
