#!/bin/sh
# Builds rfcd, rfcpaper and rfcmerge from the source tree this script sits
# in, builds the benchmark program (a module of its own, next to this file),
# and runs it with the given arguments. Run from any directory:
#
#   sh perfbench/run.sh --workload rfcd-query --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and scratch file lands under one directory in
# the tree: $CARGO_TARGET_DIR when set (relative paths are taken from the
# tree's root), .bench_build otherwise.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR" "$build/bin"

go build -o "$build/bin/" ./cmd/rfcd ./cmd/rfcpaper ./cmd/rfcmerge
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
