#!/usr/bin/env bash
# Builds the yallaperf benchmark from source and runs it, from the root
# of a checkout:
#
#   bash yallaperf/run.sh --workload cold-matrix --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, the binary, traces).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/yallaperf" && go build -o "$out/yallaperf" .)
cd "$root"
exec "$out/yallaperf" "$@"
