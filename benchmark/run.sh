#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every file the build and the
# run write (Go build cache, binary, databases, results) stays inside the
# checkout, under benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/benchmark/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/vbench" .
cd "$root"
exec "$build/vbench" "$@"
