#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program. Build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout, so a run reads and writes nothing outside.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/hypertp-bench" .
exec "$build/hypertp-bench" "$@"
