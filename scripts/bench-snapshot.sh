#!/bin/sh
# Capture one bench trajectory point: run the hot-path benchmarks with
# -count repetitions (so benchdiff has variance to reason about) and write
# a sample-preserving ccperf/v1 bench envelope. Committed points live at
# the repo root as BENCH_<n>.json, one per PR (see docs/TELEMETRY.md).
# Each run lasts -benchtime (1s by default), so b.N grows until the
# timing is stable, and five runs give benchdiff its samples.
#
#   scripts/bench-snapshot.sh                 # repo-root BENCH_<n+1>.json
#   scripts/bench-snapshot.sh out/bench.json  # explicit path (CI artifact)
#   COUNT=2 BENCHTIME=200ms scripts/bench-snapshot.sh   # quicker, noisier
#   LOADTEST=0 scripts/bench-snapshot.sh      # skip the macro loadtest run
#   BENCH='^BenchmarkMatMul$' scripts/bench-snapshot.sh out/m.json  # -bench filter
set -eu

cd "$(dirname "$0")/.."

sha=$(git rev-parse --short HEAD 2>/dev/null || echo nogit)
bench=${BENCH:-.}
benchtime=${BENCHTIME:-1s}
count=${COUNT:-5}
loadtest=${LOADTEST:-1}

# Default output: next free repo-root trajectory point BENCH_<n>.json.
out=${1:-}
if [ -z "$out" ]; then
    n=$(ls BENCH_*.json 2>/dev/null |
        sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' |
        sort -n | tail -1)
    n=$((${n:-0} + 1))
    out=BENCH_${n}.json
fi

mkdir -p out

echo "bench snapshot: micro benchmarks (-bench '$bench' -benchtime $benchtime -count $count)"
go test -run - -bench "$bench" -benchmem -benchtime "$benchtime" -count "$count" \
    . ./internal/tensor ./internal/nn ./internal/explore ./internal/engine ./internal/serving ./internal/shard > out/bench-raw.txt

loadtest_flag=""
if [ "$loadtest" = "1" ]; then
    echo "bench snapshot: macro loadtest (throughput/p99 + stage attribution)"
    go run ./cmd/ccperf loadtest \
        -requests 400 -duration 2s -windows 4 -replicas 2 \
        -queue 64 -max-batch 8 -slo 50ms -deadline 500ms -cooldown 200ms \
        -report-out out/loadtest-snapshot.json >/dev/null
    loadtest_flag="-loadtest out/loadtest-snapshot.json"
fi

# shellcheck disable=SC2086  # loadtest_flag is intentionally word-split
go run ./cmd/ccperf benchjson \
    -in out/bench-raw.txt \
    -sha "$sha" -benchtime "$benchtime" -count "$count" \
    $loadtest_flag \
    -out "$out"
echo "bench snapshot: $out"
