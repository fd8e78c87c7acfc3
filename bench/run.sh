#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload wire-fam --seed 1 --seconds 12 --trace 0
#
# Everything the go command writes (binary, build cache, compiler scratch
# files, the empty module cache under GOPATH, telemetry counters under the
# config directory) stays in the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise. GOTOOLCHAIN=local
# keeps the go command from fetching another toolchain.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"

export GOTMPDIR="$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
