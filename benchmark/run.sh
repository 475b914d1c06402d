#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache and every other file
# the build or the run writes stay under .bench_build/ in that root; the
# go command's user configuration (telemetry counters included) goes
# there too.
set -euo pipefail
mkdir -p .bench_build/tmp
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if ! (cd benchmark && go build -o "$build/benchmark" .) >&2; then
	echo "benchmark: build failed" >&2
	exit 2
fi
exec "$build/benchmark" "$@"
