#!/usr/bin/env bash
# Builds the commtm-bench CLI and the benchmark from source, then runs one
# benchmark workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

# Builds run in the background so an interrupt can stop them and wait.
build() {
	"$@" &
	pid=$!
	trap 'kill -INT "$pid" 2>/dev/null; wait "$pid"; exit 130' INT TERM HUP
	wait "$pid"
	trap - INT TERM HUP
}
build go build -o "$out/bin/commtm-bench" ./cmd/commtm-bench
build go -C perfbench build -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" -cli "$out/bin/commtm-bench" -tmp "$out/tmp" "$@"
