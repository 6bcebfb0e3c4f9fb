#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-search --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Everything the Go toolchain and the
# benchmark write (build cache, binary, spans, result files) stays under
# .bench_build/ in the checkout; the binary replaces this shell, so the
# benchmark is the only process left running.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/home"

export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOENV=off
export GOTOOLCHAIN=local

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" -out "${out}" "$@"
