#!/usr/bin/env bash
# Regenerates every table and figure of the evaluation (EXPERIMENTS.md).
# Outputs land in results/ as plain text.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
BINS="exp_power_trace exp_overshoot exp_tpoe exp_efficiency exp_scaling \
      exp_adaptation exp_budget_sweep exp_granularity exp_multithreaded \
      exp_variation exp_noc exp_extended_range exp_resilience exp_fleet \
      exp_market abl_reallocation abl_discretization abl_schedules abl_thermal \
      abl_transitions workload_report"
cargo build --release -p odrl-bench
for bin in $BINS; do
    echo "=== $bin ==="
    cargo run --release -q -p odrl-bench --bin "$bin" | tee "results/$bin.txt"
done
echo "=== criterion benches ==="
cargo bench -p odrl-bench | tee results/criterion.txt
