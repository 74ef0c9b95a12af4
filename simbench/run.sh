#!/usr/bin/env bash
# Builds simbench from source and runs it with the given flags, e.g.
#   bash simbench/run.sh --workload cmp-cold --seed 1 --seconds 25 --trace 0
# Run it from the repository root. The binary, the Go build cache and
# Go's temporary files go to .bench_build/, the benchmark's span files
# and temporary data to .bench_out/, so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/simbench" .)
exec "$build/simbench" -out "$root/.bench_out" "$@"
