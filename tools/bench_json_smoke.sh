#!/usr/bin/env sh
# bench_json smoke: one short run of the op-level benchmark binary
# (bench/bench_json.cpp) into a temporary directory. Both snapshots must
# convert through tools/ab_bench.py's own reader (every entry carries one
# unit key) and hold every entry the same-run gates of
# tools/run_benchmarks.sh read. No timing is asserted.
#
#   tools/bench_json_smoke.sh BENCH_JSON_BINARY
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_json_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

"$1" --min-time 0.01 --train-episodes 1 --max-workers 1 \
    --dense-scenario "$repo_root/scenarios/dense_traffic.json" \
    --nn-out "$work/nn.json" --train-out "$work/train.json" 2> "$work/log" \
    || { cat "$work/log"; echo "FAIL: bench_json exited non-zero"; exit 1; }

python3 -B - "$repo_root/tools" "$work/nn.json" "$work/train.json" <<'PYEOF'
import json, sys

sys.path.insert(0, sys.argv[1])
import ab_bench

docs = []
for path in sys.argv[2:]:
    with open(path) as f:
        docs.append(json.load(f))
metrics = ab_bench.snapshot_result(docs)["metrics"]
gates = {"BM_PhaseScope/off": "real_time_ns", "BM_BatchStep/V128": "steps_per_sec",
         "BM_BatchStep/V128_allpairs": "steps_per_sec"}
missing = [name for name, unit in gates.items() if metrics.get(name, {}).get("unit") != unit]
if missing:
    sys.exit(f"FAIL: snapshots lack {', '.join(missing)}")
print(f"bench_json smoke: {len(metrics)} entries, the gates' entries present")
PYEOF
