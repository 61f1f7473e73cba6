#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh --workload annotate-cold --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -compare A1.json,A2.json B1.json,B2.json
#
# Every build product, Go cache and work file stays under .bench_build/
# in the repository root; nothing is written elsewhere and nothing is
# fetched over the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C bench build -o "$build/bin/bench" . >&2
exec "$build/bin/bench" -root "$PWD" "$@"
