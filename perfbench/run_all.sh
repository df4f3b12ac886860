#!/bin/sh
# Run every workload untraced (end-to-end metrics), then traced (per-layer
# metrics):
#   sh perfbench/run_all.sh [SEED] [SECONDS]
set -e
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-15}
for trace in 0 1; do
    for workload in cli_corpus cli_generated spectral_n32 measure_small; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
