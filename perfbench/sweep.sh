#!/usr/bin/env bash
# Runs the benchmark on several seeds and records every result into one
# NDJSON run set for `run.sh compare`. Run it from the repository root:
#
#   bash perfbench/sweep.sh OUT.ndjson "hot_read cold_read" "1 2 3 4 5"
#
# Workloads and seeds are space-separated lists; each run lasts the
# run_seconds of BENCHMARK.json. A run whose checks fail stops the sweep.
set -euo pipefail

out=$1
workloads=$2
seeds=$3
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
# Seeds outermost, so a slow stretch of the machine spreads over the
# workloads instead of landing on one.
for s in $seeds; do
	for w in $workloads; do
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 --record "$out" | tail -n 1
	done
done
