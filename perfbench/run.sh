#!/usr/bin/env bash
# Builds tarmd and the benchmark from this tree, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-mine --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory: binaries, the Go build cache, generated data,
# server logs and the traced run's spans.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go build -o "$out/bin/tarmd" ./cmd/tarmd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --tarmd "$out/bin/tarmd" --work "$out/work" "$@"
