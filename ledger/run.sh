#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash ledger/run.sh --workload matrix-warm --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache, module
# cache, the compiler's scratch files, the binary) stays under .bench_build/
# in that root. The benchmark module replaces the repro module with the
# enclosing checkout, so outside a full checkout the build fails and nothing
# is measured.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/ledger" build -o "$build/ledger" . >&2
exec "$build/ledger" "$@"
