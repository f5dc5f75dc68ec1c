#!/usr/bin/env bash
# Builds the statcube benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare parent.ndjson change.ndjson
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, temporary
# snapshot stores and trace dumps.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the statcube repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
