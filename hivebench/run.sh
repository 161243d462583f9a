#!/usr/bin/env bash
# Builds the benchmark from the repository source and runs it with the
# given arguments, e.g.
#
#	bash hivebench/run.sh --workload bi_serving --seed 1 --seconds 20 --trace 0
#	bash hivebench/run.sh --report paper
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, traces, result files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$here/../go.mod" ]; then
	echo "hivebench: run from the repository root; the warehouse source is missing" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/hivebench" .)
exec "$out/hivebench" --out "$out/hivebench-out" "$@"
