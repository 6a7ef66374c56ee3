#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1-inproc --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file live under
# .bench_build/ in the checkout, so a run writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Not exec: the benchmark reports its children's peak memory, and an exec'd
# process would inherit the compiler's from the build above.
"$out/perfbench" "$@"
