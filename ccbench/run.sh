#!/usr/bin/env bash
# Builds the ccbench program from the checkout it sits in and runs it.
# Run from the checkout root:
#
#   bash ccbench/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under the
# build directory, $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export CCBENCH_OUT=$out

(cd "$root/ccbench" && go build -o "$out/ccbench" .)
exec "$out/ccbench" "$@"
