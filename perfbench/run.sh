#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, temporary files, Go's own configuration
# and telemetry, and the binary all stay in .bench_build at the repository
# root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
