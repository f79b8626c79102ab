#!/usr/bin/env bash
# Builds the benchmark and the compose-server it drives from the checkout's
# sources into .bench_build/, then runs the benchmark from the checkout's
# root with the arguments given. Everything Go writes while building stays
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$build/bench" .
go -C "$root" build -o "$build/compose-server" ./cmd/compose-server
cd "$root"
exec "$build/bench" -server "$build/compose-server" "$@"
