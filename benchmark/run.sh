#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# Every Go cache and config directory is redirected under .bench_build so
# the run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local \
	GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/hsqp-benchmark" .)
exec "$build/hsqp-benchmark" "$@"
