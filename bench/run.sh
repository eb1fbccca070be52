#!/usr/bin/env bash
# Builds h2bench from the checkout this script lies in and runs it with the
# arguments given. Everything the build writes (binary, Go build cache,
# temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/h2bench" ./bench/h2bench
exec "$out/h2bench" "$@"
