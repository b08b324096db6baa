#!/bin/sh
# Full verification: gofmt, vet, build, race-enabled tests, and the
# nested benchmark module against this checkout. CI and pre-commit both
# run this; `make check` is an alias.
set -eu
cd "$(dirname "$0")/.."

echo '>> gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo '>> go vet ./...'
go vet ./...
echo '>> go build ./...'
go build ./...
# Benchmark-module gate: bench/ is its own module (`replace repro =>
# ../`) importing the facade and internal/server, so ./... never
# compiles it; an API change must not leave it broken (`make
# bench-check` runs just this gate).
echo '>> go -C bench vet ./... && go -C bench test ./... (benchmark-module gate)'
go -C bench vet ./...
go -C bench test ./...
# Observability gate: the obs package and the root metrics/tracing
# integration tests (concurrent queries against a scraped registry)
# run first for fast, attributable failure; the full suite below
# covers them again as part of ./...
echo '>> go test -race ./internal/obs (observability gate)'
go test -race ./internal/obs
echo '>> go test -race -run "Obs|Trace|Metrics|Scrape|QueryLog|Prom|Federation" . (observability integration)'
go test -race -run 'Obs|Trace|Metrics|Scrape|QueryLog|Prom|Federation' .
# Resilience gate: the fault-injection matrix, the degraded-read
# acceptance scenario and the serial-vs-parallel differential suite run
# first for attributable failure; ./... repeats them below.
echo '>> go test -race -run "Fault|SourceDown|FailClosed|StaleResults|Differential|Resilience" . ./internal/fault ./internal/sources ./internal/iql (resilience gate)'
go test -race -run 'Fault|SourceDown|FailClosed|StaleResults|Differential|Resilience' . ./internal/fault ./internal/sources ./internal/iql
# Planner gate: the cost-based planner's unit tests (cost model,
# estimate surfaces, adaptive decisions), the rvm statistics provider,
# the root-level cardinality-accuracy and planner-choice golden suites,
# and the three-way differential suite run first for attributable
# failure; ./... repeats them below.
echo '>> go test -race -run "Planner|Cost|Estimate|Adaptive|Cardinality|Differential" ./internal/iql ./internal/rvm . (planner gate)'
go test -race -run 'Planner|Cost|Estimate|Adaptive|Cardinality|Differential' ./internal/iql ./internal/rvm .
# Store gate: the durable-store package (WAL/snapshot/recovery units)
# and the root-level crash-matrix + corruption + recovered-index suites
# run first for attributable failure; ./... repeats them below.
echo '>> go test -race ./internal/store (store gate)'
go test -race ./internal/store
# Storage gate: the Engine conformance suite runs every contract test
# (append/tail/recover/drop/digest + the crash matrix + the dir lock)
# against BOTH backends — WAL and compacted-segment — so a backend
# can only regress attributably (docs/PERSISTENCE.md).
echo '>> go test -race ./internal/storage (storage backend matrix)'
go test -race ./internal/storage
echo '>> go test -race -run "Crash|Corruption|Recovered|RemoveSource" . (durability gate)'
go test -race -run 'Crash|Corruption|Recovered|RemoveSource' .
# Replication gate: the repl package (shipping, follower recovery,
# chaos transport, concurrent-ship stress) plus the root-level
# crash-a-follower matrix, chaos lanes, staleness/differential suites
# and the federation policy tests run first for attributable failure;
# ./... repeats them below.
echo '>> go test -race ./internal/repl (replication gate)'
go test -race ./internal/repl
echo '>> go test -race -run "Replica|ReplChaos|Federation|DoubleCrash" . (replication integration)'
go test -race -run 'Replica|ReplChaos|Federation|DoubleCrash' .
# Server gate: the multi-tenant daemon package — unit/integration
# tests, the concurrent-tenant load harness (at the in-gate scale its
# flag defaults set), the seeded chaos lane and the crash-recovery
# test — runs first for attributable failure; ./... repeats it below.
echo '>> go test -race ./internal/server (multi-tenant server gate)'
go test -race ./internal/server
echo '>> go test -race ./...'
go test -race ./...
echo 'check: OK'
