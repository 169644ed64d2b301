#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root, forwarding every argument:
#
#   bash perfbench/run.sh --workload explore-tso7 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare OLD NEW
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, the runs' scratch stores) stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C perfbench -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
