#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload boom-lite --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and all run artifacts (span files, the
# result history) live under .bench_build/ in the current directory, so the
# benchmark reads and writes nothing outside the checkout it runs in.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"

# Build offline, with the toolchain that is installed, into the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2

exec "$out/perfbench" -out "$out" "$@"
