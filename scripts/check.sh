#!/bin/sh
# Tier-1+ gate: everything a PR must pass before merge (see ROADMAP.md).
# Runs formatting, vet, build, the full test suite under the race
# detector, the tensor tests once more without it, a one-iteration
# benchmark smoke pass, and the benchdiff regression gate on the
# hot-path benchmarks.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# The SSE2 and AVX kernels in internal/tensor are amd64-only; vetting for
# arm64 keeps the portable Go fallback compiling.
echo "== GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

echo "== go build ./..."
go build ./...

# ccbench is its own module (replace ccperf => ../), so ./... above never
# compiles it; vet it here so an API change it builds against fails the
# gate rather than the benchmark run.
echo "== (cd ccbench && go vet ./...)"
(cd ccbench && go vet ./...)

echo "== go test -race ./..."
go test -race ./...

# The race build compiles the Go matrix-vector loop with its ADDSS
# operands the other way round, so under -race the FC tile's identity
# test lets two NaNs match whatever their payloads. Without -race it
# compares every bit.
echo "== go test ./internal/tensor (NaN payloads, without -race)"
go test ./internal/tensor

# The degree label is the key of every engine cache entry; fuzz its
# grammar (ParseDegree/Label round trip, ratios in [0,1]) on every run.
echo "== fuzz ParseDegree (10s)"
go test -run - -fuzz '^FuzzParseDegree$' -fuzztime 10s ./internal/prune

# Every fleet flag (-fleet, -pool, predict's fleets) parses through
# ParseConfig or ParseConfigAll; fuzz both (no panic, Label round trip).
echo "== fuzz ParseConfig (10s)"
go test -run - -fuzz '^FuzzParseConfig$' -fuzztime 10s ./internal/cloud

# Tenant spec files (-tenants) parse through ParseSpecs; fuzz it (no panic;
# an accepted spec set has finite fields, SLO() > 0 and Deadline() >= 0).
echo "== fuzz ParseSpecs (10s)"
go test -run - -fuzz '^FuzzParseSpecs$' -fuzztime 10s ./internal/tenant

# Custom architectures (`ccperf spec -file`: conv, pool, lrn, inception
# and other directives) parse through models.ParseSpec; fuzz it (no
# panic; every error names its line or is the empty-spec error).
echo "== fuzz ParseSpec (10s)"
go test -run - -fuzz '^FuzzParseSpec$' -fuzztime 10s ./internal/models

# loadtest -shape parses through workload.ParseShapes; fuzz it (no panic;
# an accepted shape gives ShapedArrivals finite, sorted times inside the
# replay).
echo "== fuzz ParseShapes (10s)"
go test -run - -fuzz '^FuzzParseShapes$' -fuzztime 10s ./internal/workload

echo "== bench smoke (go test -run - -bench . -benchtime 1x)"
mkdir -p out
# One iteration of every benchmark: each must run and terminate at b.N = 1.
go test -run - -bench . -benchmem -benchtime 1x \
    . ./internal/tensor ./internal/nn ./internal/explore ./internal/engine ./internal/serving ./internal/shard | tee out/bench-smoke.txt

# Regression gate: rerun the gated hot-path benchmarks
# (benchdiff.DefaultGatePattern) the way the newest committed trajectory
# point recorded them, at its -benchtime and -count, and diff the two.
# `ccperf benchdiff -snapshot-env` reads those settings from the point's
# meta, so the rerun always matches its baseline: a one-iteration run is
# no baseline for a time-based one, as it reads a cold first call, several
# times slower than the warmed loop on sub-microsecond benchmarks. The
# baseline may come from a different machine, so the default threshold is
# generous (0.5 = 50%): it catches order-of-magnitude breakage, not noise;
# the committed trajectory carries the fine-grained story. BENCHDIFF_SKIP=1
# escapes the gate; an intentional perf change is blessed by committing a
# fresh BENCH_<n+1>.json (docs/TELEMETRY.md).
baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)
if [ "${BENCHDIFF_SKIP:-0}" = "1" ]; then
    echo "== benchdiff gate skipped (BENCHDIFF_SKIP=1)"
elif [ -z "$baseline" ]; then
    echo "== benchdiff gate skipped (no committed BENCH_*.json baseline)"
else
    rerun=$(go run ./cmd/ccperf benchdiff -snapshot-env "$baseline")
    eval "$rerun" # sets BENCH, BENCHTIME and COUNT
    echo "== benchdiff gate (gated benchmarks at -benchtime $BENCHTIME -count $COUNT, as $baseline recorded them; threshold ${BENCHDIFF_THRESHOLD:-0.5})"
    BENCH=$BENCH BENCHTIME=$BENCHTIME COUNT=$COUNT LOADTEST=0 \
        scripts/bench-snapshot.sh out/bench-check.json
    go run ./cmd/ccperf benchdiff \
        -threshold "${BENCHDIFF_THRESHOLD:-0.5}" -fail-on-regression \
        "$baseline" out/bench-check.json
fi

echo "== loadtest smoke (race-enabled gateway replay)"
go run -race ./cmd/ccperf loadtest \
    -requests 300 -duration 2s -windows 4 -replicas 1 \
    -queue 16 -max-batch 4 -slo 5ms -deadline 250ms -cooldown 300ms

echo "== chaos smoke (breakers + retries under canned faults, error-rate gate)"
go run -race ./cmd/ccperf loadtest \
    -requests 300 -duration 2s -windows 4 -replicas 2 \
    -queue 64 -max-batch 4 -slo 5ms -deadline 250ms \
    -chaos -max-error-rate 0.75

# autoscale_smoke LOG ARGS...: run `ccperf loadtest ARGS` under -race,
# print its output, and fail unless it exits zero (its budget and p99
# gates) and its autoscale ledger shows at least one scale-out, one
# scale-in, one degrade and one restore. A 1 ms SLO is violated on any
# host, so the loop must scale out and then degrade while traffic flows.
# In the idle cooldown it restores every rung, one per three healthy
# ticks, before it hands a replica back, so the cooldown must outlast
# every restore: 3 s is 30 ticks.
autoscale_smoke() {
    log=$1
    shift
    status=0
    go run -race ./cmd/ccperf loadtest "$@" >"$log" 2>&1 || status=$?
    cat "$log"
    [ "$status" -eq 0 ] || exit "$status"
    ledger=$(grep '^autoscale:' "$log" || true)
    if ! echo "$ledger" | awk 'NF >= 10 && $4 >= 1 && $6 >= 1 && $8 >= 1 && $10 >= 1 { ok = 1 } END { exit !ok }'; then
        echo "autoscale smoke did not scale out, scale in, degrade and restore: ${ledger:-no ledger}" >&2
        exit 1
    fi
}

echo "== autoscale smoke (cost-accuracy loop; must scale out, scale in, degrade and restore; exits non-zero past the budget or p99 gate)"
autoscale_smoke out/autoscale-smoke.txt \
    -requests 300 -duration 2s -windows 4 \
    -queue 64 -max-batch 4 -slo 1ms -deadline 500ms -cooldown 3s \
    -autoscale -budget 2.7 -min-replicas 1 -max-replicas 3 \
    -autoscale-interval 100ms -max-p99 2s

echo "== tenant autoscale smoke (the same loop on a two-tenant gateway; must scale out, scale in, degrade and restore)"
autoscale_smoke out/tenant-autoscale-smoke.txt \
    -tenants examples/tenants-violating.json -duration 2s -max-batch 4 -cooldown 3s \
    -autoscale -budget 2.7 -min-replicas 1 -max-replicas 3 \
    -autoscale-interval 100ms -max-p99 2s

echo "== sharded chaos smoke (3 shards / 2 regions, correlated regional failure mid-replay)"
# The resilience claim, gated: us-east goes dark for the middle third of
# the replay under a 2x spot spike, and client-visible errors must stay
# under 1% — requests re-route, fail over, or shift; they do not fail.
go run -race ./cmd/ccperf loadtest \
    -shards 3 -regions us-west,us-east -requests 200 -duration 3s \
    -replicas 2 -queue 64 -max-batch 4 -deadline 1s -cooldown 300ms \
    -shape "flash:0.5+0.05+0.2x2" -origin-corr 0.5 \
    -faults "region@us-east:1+1,spot@us-east:0+3x2,seed=9" \
    -max-error-rate 0.01

echo "== tenant chaos smoke (two-tenant fleet under canned faults, error-rate gate)"
go run -race ./cmd/ccperf loadtest \
    -tenants examples/tenants.json -duration 2s \
    -replicas 2 -max-batch 4 \
    -faults "err:0.05,seed=11" -max-error-rate 0.75

echo "== fault-injected simulate smoke (preemption + straggler schedule)"
go run ./cmd/ccperf simulate \
    -fleet 2xp2.xlarge -degree conv1@30+conv2@50 \
    -faults "preempt@0:21600,slow@1:30000+3600x2,seed=7"

echo "== predict smoke (leave-one-out transfer fit, 5% held-out error gate)"
# The fit recovers the simulated device model up to measurement jitter
# (±3%); 5% is breakage, not noise. The -train leg exercises the
# training cost model end-to-end on a mixed measured+transferred fleet.
go run ./cmd/ccperf predict -max-error 5
go run ./cmd/ccperf predict -max-error 5 \
    -train -samples 120000 -epochs 2 \
    -fleet "1xp3.2xlarge+1xp2.8xlarge" -jobs 2 -deadline-hours 24

echo "check.sh: all gates passed"
