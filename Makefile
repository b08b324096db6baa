GO ?= go
# The host's CPU count: the parallel benchmark lane runs at this many
# workers, and idmbench's speedup gate refuses more than the hardware has.
NPROC ?= $(shell nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)

.PHONY: check test build vet bench bench-check bench-iql obs-bench fuzz-smoke repl-chaos storage-matrix load-smoke

# Full verification: gofmt + vet + build + the benchmark-module gate
# below + the whole suite once under -race. The subset targets further
# down (storage-matrix, repl-chaos, load-smoke, fuzz-smoke) re-run one
# area by hand.
check:
	sh scripts/check.sh

# Vet and unit-test the nested benchmark module (bench/, its own go.mod)
# against this checkout; `go build ./... && go test ./...` never
# compiles it.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short fuzzing pass over the iQL parser, evaluator, the differential
# harness (serial and parallel lanes against an index-free oracle), the
# durable store's WAL and snapshot decoders, the replication shipment
# decoder, the daemon's request decoders and its /query encoder against
# encoding/json, the text-index analyzer against its rune-loop reference, and the text
# index's bulk build against its incremental one (30s per target;
# iQL seed corpora live in internal/iql/testdata/fuzz/, store corpora
# are generated in-test). Each target must run alone: `go test -fuzz` accepts only
# one fuzz target per invocation.
fuzz-smoke:
	$(GO) test ./internal/iql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/iql -run '^$$' -fuzz '^FuzzEval$$' -fuzztime 30s
	$(GO) test ./internal/iql -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 30s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime 30s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime 30s
	$(GO) test ./internal/repl -run '^$$' -fuzz '^FuzzShipDecode$$' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzServerRequest$$' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzQueryEncoding$$' -fuzztime 30s
	$(GO) test ./internal/textindex -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 30s
	$(GO) test ./internal/textindex -run '^$$' -fuzz '^FuzzBuilderMatchesIndex$$' -fuzztime 30s

# Quick multi-tenant soak: the imemexd load harness at a smoke scale
# (20 tenants × 5 clients, several iterations) under the race detector.
# The full scale (200 tenants, the flag defaults) runs in `make check`
# as part of its one `go test -race ./...`; see docs/SERVER.md.
load-smoke:
	$(GO) test -race ./internal/server -run 'TestLoadConcurrentTenants' -v \
		-args -load-tenants=20 -load-clients=5 -load-iters=4

# Storage matrix: the Engine conformance suite (append, append at an
# LSN, install, tail, recovery, drop, digest, crash matrix, dir lock,
# legacy compact directories refused) plus every root-level crash/
# differential harness that runs through the engine — the replica crash
# matrix among them: a follower logs through the engine, so killing one
# mid-pull is an engine test. See docs/PERSISTENCE.md.
storage-matrix:
	$(GO) test -race -v -run 'TestConformance|TestDirLock|TestBackendMismatch' ./internal/storage
	$(GO) test -race -run 'TestCrashMatrix|TestCrashDuringSnapshot|TestDoubleCrashDuringRecovery|TestReplicaDifferential|TestReplicaCrashMatrix' .

# Replication chaos suite at the pinned seed: every lane (drop, dup,
# reorder, torn, all) of the hostile-transport schedule replays
# deterministically from -chaos-seed, so a failure here reproduces
# bit-for-bit (docs/REPLICATION.md).
repl-chaos:
	$(GO) test -race -run 'TestReplChaos' . -args -chaos-seed=1

# Planner regression gate: run the two-lane benchmark (serial and
# parallel at the host's CPU count, one planner, automatic expansion) at
# the evaluation scale and at 10×, and fail if the parallel lane falls
# below 0.95× of serial on any query — given more cores, the planner
# must never lose to serial execution.
bench:
	$(GO) run ./cmd/idmbench -exp iql -scale 0.05 -runs 10 -parallelism $(NPROC) -obsreps 0 -tenx -minspeedup 0.95

# Regenerate BENCH_iql.json (two-lane engine microbenchmark at base
# and 10x scale, the obs_overhead instrumentation-cost section, and the
# index_build cold-start section at the paper scale; schema_version 6,
# see internal/experiments.BenchReport).
bench-iql:
	$(GO) run ./cmd/idmbench -exp iql -scale 0.05 -runs 10 -parallelism $(NPROC) -tenx -minspeedup 0.95 -ixreps 3 -ixscale 1.0 -json BENCH_iql.json

# Re-measure only the observability overhead (obs_overhead section of
# BENCH_iql.json) and gate it: mean disabled overhead <= 2%, mean
# query-log-enabled overhead <= 3% (see docs/OBSERVABILITY.md). The
# gate is opt-in here rather than in scripts/check.sh because
# percent-level timing bounds need a quiet machine.
obs-bench:
	$(GO) run ./cmd/idmbench -exp iql -scale 0.05 -runs 10 -parallelism $(NPROC) -obsreps 4 -obsgate -json BENCH_iql.json
