#!/bin/sh
# The command BENCHMARK.json names: builds the benchmark from source
# into .bench_build/ of the checkout it is run from (build cache and
# temporary files too, so nothing is written outside the checkout) and
# runs it with the arguments given. The first build of a checkout
# compiles the standard library; later ones are no-ops.
set -e
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# The module has no dependencies; go still wants to know where a module
# cache would be.
[ -n "$HOME$GOPATH$GOMODCACHE" ] || export GOMODCACHE="$build/gomodcache"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
