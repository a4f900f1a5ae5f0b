#!/usr/bin/env bash
# Builds the serving-path benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the repository
# root. Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, temporary files, WAL directories and trace
# files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command keeps telemetry counters and its env file under the user
# config directory; keep those inside the build directory too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
