#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOTELEMETRY=off
export GOFLAGS=-modcacherw GOMODCACHE="$out/gomodcache" GOPROXY=off GOENV=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$out/perfbench" "$@"
