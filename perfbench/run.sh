#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload snet-cold --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, traces) stays under .bench_build/ in the checkout, and
# no network is used: the benchmark module needs only the repository's
# own module, replaced by its path.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
