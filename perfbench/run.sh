#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, from the checkout
# root:
#
#   bash perfbench/run.sh --workload serve-small --seed 3 --seconds 18 --trace 0
#
# The binary, the Go build cache and the result documents all stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
(
	cd perfbench
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/perfbench.bin" .
)
exec "$out/perfbench.bin" "$@"
