#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#
#   bash perfbench/run.sh --workload ets-union --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and its
# temporary files, the go command's own config and telemetry, and span
# files all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
