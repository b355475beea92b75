#!/usr/bin/env bash
# Builds the pool benchmark from source inside the checkout and runs it
# with the arguments given; BENCHMARK.json names this script as its
# command. Everything the build writes (cache, temporary files, the Go
# tool's own state, the binary) stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOCACHE="$build/gocache" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local go build -C bench -o "$build/poolbench" .
exec "$build/poolbench" "$@"
