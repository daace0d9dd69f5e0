#!/bin/bash
# Regenerate every table, figure text file and bench report under results/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p lra-bench
B=target/release
for bin in table1 table2 fig1_left fig1_right fig3 fig4 fig5 fig6; do
  "$B/$bin" > "results/$bin.txt" 2>/dev/null
done
"$B/fig2" --tsvd > results/fig2.txt 2>/dev/null
# The gated kernel report CI diffs its ratios against.
"$B/kernel_bench" --out results/BENCH_kernels.json
# The bitwise fingerprint CI diffs a fresh run against; it changes only
# when a PR re-rounds on purpose.
"$B/fingerprint" --out results/FINGERPRINT.txt
echo ALL_EXPERIMENTS_DONE
