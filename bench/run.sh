#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout (Go's build cache included, so nothing is written outside it)
# and runs it with the driver's arguments.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$repo/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOWORK=off
go build -C "$repo/bench" -o "$out/bench" .
exec "$out/bench" -repo "$repo" -build-dir "$out" "$@"
