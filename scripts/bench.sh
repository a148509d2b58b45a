#!/usr/bin/env bash
# bench.sh — run the engine benchmarks and write a committed JSON artifact.
#
# Usage:
#   scripts/bench.sh [quick|full] [output.json]
#
#   quick  (default) the engine-core subset (BenchmarkRunAsync*,
#          BenchmarkEngine), the event queue alone (BenchmarkEventQueue)
#          and the graph kernels at a short benchtime; what CI runs per
#          push.
#   full   every benchmark in the repo at the default benchtime; use for
#          the committed BENCH_<pr>.json artifacts.
#
# Both modes take 5 samples (-count 5) of every benchmark. The JSON is
# produced by cmd/benchjson: per benchmark its package, GOMAXPROCS, the
# median ns/op with the min and max sample and every sample, and median
# B/op, allocs/op and custom metrics such as events/s. Set
# BASELINE=path.json to attach baseline numbers, speedup factors and a
# Mann–Whitney p-value per benchmark from an earlier artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-quick}"
out="${2:-bench.json}"

case "$mode" in
  quick)
    # BenchmarkRunAsync also matches the ExecTrace/Reuse/Metrics variants by
    # prefix; BenchmarkRunSharded adds the parallel-engine speedup curve;
    # BenchmarkSetup/BenchmarkReseedNode/BenchmarkNodeRand pin the O(1)
    # compact-RNG setup path (incl. the 10^6-node construction case); the
    # graph package contributes the build benchmarks, the batched
    # Diameter, Girth and GreedySpanner kernels and the random port map
    # every RandomPorts cell builds (BenchmarkRandomPorts); internal/sim contributes the
    # queue layer (BenchmarkEventQueue: hold model at 10^3/10^5/4*10^6
    # live events and a 4*10^6 burst-drain, 10^6+ events per op, so one
    # op is a sample), and the delay adversary per delayer (BenchmarkDelay)
    # and the node generator (BenchmarkPCG), 2^20 calls per op reported as
    # ns/call.
    pattern='BenchmarkRunAsync|BenchmarkRunSharded|BenchmarkEngine|BenchmarkEventQueue|BenchmarkDelay|BenchmarkPCG|BenchmarkDiameter|BenchmarkGirth|BenchmarkGreedySpanner|BenchmarkRandomPorts|BenchmarkBuild|BenchmarkSetup|BenchmarkReseedNode|BenchmarkNodeRand'
    packages='. ./internal/graph ./internal/sim'
    benchtime='1x'
    ;;
  full)
    pattern='.'
    packages='. ./internal/graph ./internal/sim'
    benchtime='3x'
    ;;
  *)
    echo "usage: scripts/bench.sh [quick|full] [output.json]" >&2
    exit 2
    ;;
esac

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "bench.sh: running $mode benchmarks (-bench '$pattern' -benchtime $benchtime -count 5)" >&2
# shellcheck disable=SC2086 — $packages is a deliberate word-split list.
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count 5 -timeout 60m $packages | tee "$raw" >&2

baseline_args=()
if [[ -n "${BASELINE:-}" ]]; then
  baseline_args=(-baseline "$BASELINE")
fi
go run ./cmd/benchjson "${baseline_args[@]}" -o "$out" < "$raw"
echo "bench.sh: wrote $out" >&2
