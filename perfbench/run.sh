#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ in the checkout. Outside a full checkout
# (no module at the root) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's caches, temporary files and config (telemetry
# counters included) inside the checkout.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
