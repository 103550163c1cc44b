#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload tpch-invoke --seed 1 --seconds 34 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)

exec "$build/perfbench" "$@"
