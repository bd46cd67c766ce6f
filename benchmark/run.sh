#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash benchmark/run.sh --workload fig7-1s --seed 1 --seconds 10 --trace 0`.
#
# Run it from the root of a checkout. Everything the build writes (Go's
# build cache, temporary files, the binary) goes under .bench_build/ there.
# The build is offline: no module or toolchain downloads.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOPATH="$out/gopath"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$here" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
