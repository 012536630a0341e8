#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload table3_4vm --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the current
# directory. The toolchain is never downloaded: the build uses the local
# go and no module proxy, and fails (printing no result) when the
# simulator's sources are not beside bench/.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
