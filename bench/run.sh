#!/usr/bin/env bash
# Builds prestobench from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, temp files, telemetry,
# the binary) is kept under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$build/prestobench" .
exec "$build/prestobench" -root "$root" "$@"
