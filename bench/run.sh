#!/usr/bin/env bash
# Builds and runs the benchmark with every Go cache and temp file inside the
# checkout (under .bench_build/), so a run reads and writes nothing outside
# it. Arguments go to the benchmark: see bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmpdir" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmpdir" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # Go's telemetry counters live under the user config dir
cd "$root/bench"
go build -buildvcs=false -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
