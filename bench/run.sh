#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go caches, the binary, and the stores' directories.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
go -C "$here" build -ldflags "-X main.commit=$commit" -o "$build/backlog-bench" .
exec "$build/backlog-bench" -workdir "$build/work" "$@"
