#!/usr/bin/env bash
# Builds the e2ebench binary from the checkout's sources and runs it with
# the given arguments, from the checkout root. Every build artifact,
# including the Go build cache, stays under .bench_build/ in the
# checkout.
#
#	bash e2ebench/run.sh --workload cots-grid --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/e2ebench"

# The benchmark is its own module; it reaches the repository module
# through a local replace, so nothing is downloaded.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config"
go -C "$root/e2ebench" build -o "$build/e2ebench/e2ebench" .

cd "$root"
exec "$build/e2ebench/e2ebench" "$@"
