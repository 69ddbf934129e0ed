#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; arguments go to the benchmark, for example:
#
#   bash e2ebench/run.sh --workload search-hot --seed 1 --seconds 25 --trace 0
#
# The build cache, the go command's own state and the binary live in
# .bench_build/ inside the checkout, so the first run builds and later
# runs reuse the cache. Nothing is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" "$@"
