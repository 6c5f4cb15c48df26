#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run it from the repository root:
#
#   bash isbench/run.sh --workload fleet-live --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, Go's own config
# and telemetry) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" HOME="$build/home" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$build/isbench" .)
exec "$build/isbench" "$@"
