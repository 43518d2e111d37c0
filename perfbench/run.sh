#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig-sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products, the Go build cache and any
# Go user configuration stay under .bench_build/ so the benchmark writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
