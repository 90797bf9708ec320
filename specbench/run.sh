#!/usr/bin/env bash
# Builds the specguard benchmark from the source tree it sits in and runs
# it, passing every argument through:
#
#   bash specbench/run.sh --workload paper|sweep|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's scratch files all live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f specbench/go.mod ]]; then
	echo "specbench: run from the repository root (go.mod and specbench/go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/specbench/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/specbench/gocache"
export GOPATH="$out/specbench/gopath"
export GOTMPDIR="$out/specbench/tmp"
export XDG_CONFIG_HOME="$out/specbench/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=-mod=mod
export SPECBENCH_WORKDIR="$out/specbench/work"

(cd specbench && go build -o "$out/specbench/bin/specbench" .)
exec "$out/specbench/bin/specbench" "$@"
