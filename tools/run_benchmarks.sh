#!/usr/bin/env sh
# Builds the op-level benchmark harness (bench/bench_json.cpp), runs it once
# into <build_dir>/bench_snapshots/, and checks its two same-run gates:
#
#   * spatial index (docs/PERFORMANCE.md §Spatial index): dense-traffic
#     stepping with the shared index, BM_BatchStep/V128, runs at least 4x
#     the steps/s of the all-pairs baseline BM_BatchStep/V128_allpairs;
#   * disabled OBS_PHASE scope (docs/OBSERVABILITY.md): BM_PhaseScope/off
#     costs at most 50 ns per scope.
#
#   tools/run_benchmarks.sh [build_dir]
#
# Both sides of each gate come from the same run on the same host, so
# neither depends on the host's speed. Comparing the snapshots of two
# revisions is tools/ab_bench.py --workload bench_json.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out="$build_dir/bench_snapshots"

cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" --target bench_json -j"$(nproc 2>/dev/null || echo 1)"

mkdir -p "$out"
"$build_dir/bench/bench_json" \
    --nn-out "$out/nn.json" \
    --train-out "$out/train.json" \
    --dense-scenario "$repo_root/scenarios/dense_traffic.json"
echo "wrote $out/nn.json and $out/train.json"

# The all-pairs side of the V128 ratio lives in bench/bench_json.cpp
# (AllPairsSensing): the same step_all, then reach-pruned all-pairs lidar
# staging, the every-beam narrow phase and the full-scan camera of the test
# oracle (tests/support/sim_oracle.h) — src/ keeps only the indexed path.
python3 - "$out/nn.json" "$out/train.json" <<'PYEOF'
import json, sys

def entries(path, key):
    with open(path) as f:
        return {e["name"]: e[key] for e in json.load(f)["benchmarks"]}

nn = entries(sys.argv[1], "real_time_ns")
train = entries(sys.argv[2], "steps_per_sec")
failed = []

LIMIT_NS = 50.0  # generous for QEMU/shared runners; native cost is ~1-2 ns
ns = nn.get("BM_PhaseScope/off")
if ns is None:
    failed.append("BM_PhaseScope/off missing from the nn snapshot")
elif ns > LIMIT_NS:
    failed.append(f"disabled OBS_PHASE scope costs {ns:.1f} ns (limit {LIMIT_NS})")
else:
    print(f"ok: disabled OBS_PHASE scope {ns:.2f} ns (limit {LIMIT_NS})")

MIN_RATIO = 4.0
indexed = train.get("BM_BatchStep/V128")
allpairs = train.get("BM_BatchStep/V128_allpairs")
if indexed is None or allpairs is None:
    failed.append("BM_BatchStep/V128 or BM_BatchStep/V128_allpairs missing from the "
                  "train snapshot")
else:
    ratio = indexed / allpairs if allpairs > 0 else 0.0
    if ratio < MIN_RATIO:
        failed.append(f"spatial index speedup at V=128 is {ratio:.2f}x (need >= "
                      f"{MIN_RATIO}x): indexed {indexed:.0f} steps/s vs all-pairs "
                      f"{allpairs:.0f} steps/s")
    else:
        print(f"ok: spatial index speedup at V=128 is {ratio:.2f}x (need >= {MIN_RATIO}x)")

for why in failed:
    print(f"FAIL: {why}", file=sys.stderr)
sys.exit(1 if failed else 0)
PYEOF
