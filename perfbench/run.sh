#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the binary, scratch journals, temporary sockets and
# the span files of traced runs. The build fails, and so does this script,
# when the repository's sources are absent.
set -euo pipefail

root=$(pwd)
build=.bench_build
mkdir -p "$build/tmp" "$build/gopath"
export GOCACHE="$root/$build/gocache"
export GOPATH="$root/$build/gopath"
export GOTMPDIR="$root/$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$root/$build/perfbench" .)

# A relative temp dir keeps the unix-socket paths the wire tier creates
# short enough for the kernel's limit wherever the checkout lives.
export TMPDIR="$build/tmp"
exec "$build/perfbench" "$@"
