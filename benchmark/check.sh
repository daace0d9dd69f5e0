#!/usr/bin/env bash
# Is the benchmark steady enough to judge a change by?
#
#   benchmark/check.sh [--seed N]        (about 10 minutes on two cores)
#
# Builds once, then on that one build:
#   1. runs the untraced suite twice with the same seed and fails if any
#      (end-to-end metric, workload) pair differs by more than the bound
#      BENCHMARK.json gives it, or if a solve or job failed;
#   2. runs the traced suite twice and fails if any count (rank_sum,
#      factor_mb, comm.msgs, recover.saves, core.iterations_sum) differs
#      at all, or if the benchmark's own spans cost more than 5 %;
#   3. runs the three factorization workloads traced with a second seed
#      and fails unless they keep the layer shares they were sized for:
#      column tournament >= 0.75 of solve_s on tp_sparse, <= 0.65 on
#      fill_dense, 0 on qb_dense.
set -euo pipefail

seed=7
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="${2:?--seed requires a value}"; shift 2 ;;
    *) echo "usage: benchmark/check.sh [--seed N]" >&2; exit 2 ;;
  esac
done

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/lra-benchmark"
out="benchmark/out"
keep="$out/check"
rm -rf "$keep"
mkdir -p "$keep"

suite() { # suite <name> <trace 0|1> <seed> [workloads...]
  local name="$1" trace="$2" s="$3" status=0
  shift 3
  mkdir -p "$keep/$name"
  if [ $# -eq 0 ]; then
    "$bin" --seed "$s" --trace "$trace" > "$keep/$name/stdout.txt" || status=$?
  else
    for w in "$@"; do
      "$bin" --workload "$w" --seed "$s" --trace "$trace" >> "$keep/$name/stdout.txt" || status=$?
    done
  fi
  cp "$out"/*results-*.json "$keep/$name/"
  rm -f "$out"/*results-*.json
  if [ "$status" -ne 0 ]; then
    grep FAILED "$keep/$name/stdout.txt" >&2 || true
    echo "check: suite $name exited with status $status" >&2
    exit 1
  fi
}

echo "check: untraced suite, twice (seed $seed)"
suite untraced-1 0 "$seed"
suite untraced-2 0 "$seed"
echo "check: traced suite, twice (seed $seed)"
suite traced-1 1 "$seed"
suite traced-2 1 "$seed"
echo "check: traced factorization workloads, seed $((seed + 1))"
suite traced-other-seed 1 "$((seed + 1))" tp_sparse fill_dense qb_dense

python3 - "$keep" <<'EOF'
import json, sys
from pathlib import Path

keep = Path(sys.argv[1])
spec = json.loads(Path("BENCHMARK.json").read_text())
workloads = [w["name"] for w in spec["workloads"]]
problems = []

def metrics(suite, kind, workload):
    doc = json.loads((keep / suite / f"{kind}-{workload}.json").read_text())
    if not doc["correct"]:
        problems.append(f"{suite} {workload}: {doc['failed']} of {doc['attempted']} failed")
    return {name: m["value"] for name, m in doc["metrics"].items()}

# 1. Two untraced runs agree within the bounds.
for w in workloads:
    a, b = metrics("untraced-1", "results", w), metrics("untraced-2", "results", w)
    for m in spec["end_to_end"]:
        x, y = a[m["name"]], b[m["name"]]
        diff = abs(y - x) / x
        mark = "ok" if diff <= m["bound"] else "OUT OF BOUND"
        print(f"{w:11s} {m['name']:12s} {x:14.6f} {y:14.6f} {diff:7.2%} (bound {m['bound']:.0%}) {mark}")
        if diff > m["bound"]:
            problems.append(f"{w} {m['name']}: {x} vs {y} differ by {diff:.2%} > {m['bound']:.0%}")
    for name in ("rank_sum", "factor_mb"):
        if a[name] != b[name]:
            problems.append(f"{w} {name}: {a[name]} vs {b[name]} (counts must repeat exactly)")

# 2. Two traced runs agree on every count, and spans are cheap.
for w in workloads:
    a, b = metrics("traced-1", "traced-results", w), metrics("traced-2", "traced-results", w)
    for name in ("rank_sum", "factor_mb", "comm.msgs", "recover.saves", "core.iterations_sum"):
        if a.get(name, 0) != b.get(name, 0):
            problems.append(f"{w} {name}: {a.get(name)} vs {b.get(name)} (counts must repeat exactly)")
    overhead = min(a["obs.bench_trace_overhead_ratio"], b["obs.bench_trace_overhead_ratio"])
    print(f"{w:11s} obs.bench_trace_overhead_ratio {overhead:.3f}")
    if overhead > 1.05:
        problems.append(f"{w}: the benchmark's spans cost {overhead:.3f}x in both traced runs")

# 3. A second seed keeps the layer shares.
limits = {"tp_sparse": (0.75, 1.0), "fill_dense": (0.0, 0.65), "qb_dense": (0.0, 0.0)}
for suite in ("traced-1", "traced-other-seed"):
    for w, (lo, hi) in limits.items():
        v = metrics(suite, "traced-results", w)
        share = v.get("core.bucket.col_qr_tp_s", 0.0) / v["solve_s"]
        print(f"{suite:17s} {w:11s} tournament share {share:.3f} (wanted {lo}..{hi})")
        if not lo <= share <= hi:
            problems.append(f"{suite} {w}: tournament share {share:.3f} outside {lo}..{hi}")

for p in problems:
    print("FAIL:", p)
sys.exit(1 if problems else 0)
EOF
echo "check: ok"
