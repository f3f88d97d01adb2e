#!/usr/bin/env bash
# Builds cmd/dse and the benchmark harness from this checkout's sources,
# then runs the harness:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the checkout root, the Go build cache included.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$out/bin/dse" ./cmd/dse) >&2
(cd "$bench_dir" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -dse "$out/bin/dse" "$@"
