#!/bin/sh
# Builds the benchmark from source and runs it with the arguments given,
# from the root of the checkout:
#
#   bash bench/run.sh --workload serve-cold --seed 12 --seconds 15 --trace 0
#
# It is `go run ./bench` with the compiler cache, temporaries and binary
# kept inside the checkout, under .bench_build.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/veriopt-bench" ./bench
exec "$build/veriopt-bench" "$@"
