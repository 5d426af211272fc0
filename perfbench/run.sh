#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#	sh perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#	sh perfbench/run.sh --steady 10 --seconds 10
#
# Every file the build and the run write (Go build cache, binary, data
# dirs, traces) goes under $CARGO_TARGET_DIR (default .bench_build).
set -eu
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
work="$out/perfbench"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
cd "$root/perfbench"
go build -o "$work/perfbench" .
cd "$root"
exec "$work/perfbench" --workdir "$work" "$@"
