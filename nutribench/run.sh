#!/usr/bin/env bash
# Builds cmd/nutriserve and the nutribench program from the source tree
# in the current directory (the repository root), then runs the program
# with the given arguments. Everything the Go toolchain writes — build
# cache, module cache, telemetry — goes under .bench_build/.
#
#   bash nutribench/run.sh --workload bulk-paper --seed 1 --seconds 40 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nutriserve" || ! -d "$root/internal" ]]; then
	echo "nutribench: run from the repository root (cmd/nutriserve and internal/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/nutriserve" ./cmd/nutriserve >&2
go -C nutribench build -o "$build/bin/nutribench" . >&2

exec "$build/bin/nutribench" -root "$root" -server "$build/bin/nutriserve" "$@"
