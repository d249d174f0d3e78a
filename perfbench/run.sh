#!/usr/bin/env bash
# Builds the benchmark program from the source tree it sits in and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every scratch file stay under the
# checkout's .bench_build directory. The toolchain is the local one and the
# module proxy is off: the program has no dependencies outside this tree.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go -C "$(dirname "$0")" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
