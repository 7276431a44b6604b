#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's source and runs it with
# the given flags, e.g.
#
#   bash bench/run.sh --workload fleet-vod --seed 17 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, temporary
# files, telemetry, the binary) stays under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build at the repository root.
# The benchmark module resolves the simulator through
# `replace demuxabr => ../`, so a directory without the simulator's go.mod
# fails the build and exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home" "$build/tmp"

export BENCH_BUILD_DIR="$build"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/bench" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
