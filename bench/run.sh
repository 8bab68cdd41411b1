#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it there. Everything the Go toolchain writes (build cache, module
# cache) stays inside the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/gcopss-bench" .
exec "$build/gcopss-bench" "$@"
