#!/usr/bin/env bash
# Builds the cluster benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash clusterbench/run.sh --workload tpch-qf --seed 1 --seconds 10 --trace 0
#   bash clusterbench/run.sh compare --parent DIR --change DIR
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temporary
# files, the binary and the span dumps.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# Offline, local-toolchain build whose caches and config live in $build.
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" HOME="$build" GOTOOLCHAIN=local \
  GOPROXY=off GOWORK=off \
  go -C "$root/clusterbench" build -o "$build/clusterbench" .
if [ "${1:-}" = "compare" ]; then
  exec "$build/clusterbench" "$@"
fi
exec "$build/clusterbench" --out "$build/spans" "$@"
