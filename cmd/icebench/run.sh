#!/usr/bin/env bash
# Builds cmd/icebench from source and runs it with the given flags, e.g.
#
#   bash cmd/icebench/run.sh --workload pca-local --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, result store, Chrome trace) stays under the
# build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/cmd/icebench" && go build -o "$build/icebench" .)
exec "$build/icebench" -workdir "$build/icebench-work" "$@"
