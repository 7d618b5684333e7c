#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -d "$root/benchmark" ]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ are needed)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
