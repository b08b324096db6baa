#!/bin/sh
# Full verification: gofmt, vet, build, the nested benchmark module
# against this checkout, one run of every example, one pass of the
# text-index microbenchmarks and the restore benchmark, and the whole
# test suite once under the race detector. CI and pre-commit both run
# this; `make check` is an alias.
# A failure names its package (and test); re-run just that with
# `go test -race -run <Test> <pkg>`, or one of the Makefile's subset
# targets (storage-matrix, repl-chaos, load-smoke).
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
# The examples only compile under ./...; run each once so a facade
# change that breaks one at run time fails here.
for ex in examples/*/; do
	echo ">> go run ./$ex"
	go run "./$ex" >/dev/null
done
# The text-index microbenchmarks (analyzer, bulk and incremental adds)
# and the cold-open restore benchmark once each, so they keep compiling
# and running.
echo '>> go test -bench . -benchtime 1x ./internal/textindex (text-index microbenchmarks)'
go test -run '^$' -bench . -benchtime 1x ./internal/textindex
echo '>> go test -bench RestoreFromState -benchtime 1x ./internal/rvm (restore benchmark)'
go test -run '^$' -bench RestoreFromState -benchtime 1x ./internal/rvm
echo '>> go test -race ./...'
go test -race ./...
echo 'check: OK'
