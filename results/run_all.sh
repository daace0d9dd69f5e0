#!/bin/bash
# Regenerate every table, figure text file and bench report under results/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p lra-bench
B=target/release
# Every table, figure, the claims sheet and BENCH_paper.json from one
# sweep (a run two views read executes once).
"$B/paper" --out results
# The gated kernel report CI diffs its ratios against.
"$B/kernel_bench" --out results/BENCH_kernels.json
# The bitwise fingerprint CI diffs a fresh run against; it changes only
# when a PR re-rounds on purpose.
"$B/fingerprint" --out results/FINGERPRINT.txt
echo ALL_EXPERIMENTS_DONE
