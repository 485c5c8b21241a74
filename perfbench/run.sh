#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
