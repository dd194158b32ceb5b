#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload scan|serve|ingest --seed N --seconds S --trace 0|1
#
# Run from the repository root. The build cache, the binary and the
# serve workload's temporary corpus all live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so a run reads and writes
# nothing outside the checkout. The last line of standard output is the
# JSON result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

# Keep the toolchain's caches, temporary files, and user configuration
# (telemetry counters included) under the build directory.
export GOCACHE=$out/gocache
export GOTMPDIR=$out/gotmp
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
