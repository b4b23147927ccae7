#!/usr/bin/env bash
# Builds the benchmark and the bisectd daemon from the checkout it is run
# in, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload ml-sparse --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout (Go build cache included). Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
(cd "$root" && go build -o "$build/bisectd" ./cmd/bisectd) >&2

exec "$build/perfbench" -bisectd "$build/bisectd" -workdir "$build" "$@"
