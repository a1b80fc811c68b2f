#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the binary. Build products, the go cache and the span
# files stay under <checkout>/.bench_build, so nothing outside the checkout
# is read or written. In a directory that holds only this package the
# `replace gossip => ../` target is missing, the build fails, and the
# script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$here" build -o "$build/gossipbench" .
exec "$build/gossipbench" "$@"
