#!/bin/sh
# Run every workload once, untraced, from the root of a checkout. Each run
# prints its metrics by name and unit, with operations attempted and failed,
# on stderr, and its JSON result as the last line on stdout.
#
#   sh bench/run_all.sh [seed] [seconds] [trace]
set -e
seed=${1:-1}
seconds=${2:-20}
trace=${3:-0}
for workload in pipeline-echo translate-latency dedup-clusters probe-prior; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
