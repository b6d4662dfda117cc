#!/usr/bin/env sh
# Run-health smoke gate: proves the monitoring pipeline end to end.
#
#   tools/monitor_smoke.sh [build_dir]
#
#   1. healthy pass — a tiny instrumented hero_train run with rolling
#      snapshots (--metrics-every) must leave a parseable snapshot, report a
#      positive steps_per_sec on every stage2/episode event, and
#      `hero_monitor --once` over its artifacts must exit 0.
#   2. flag parity — hero_train and hero_eval must both reject
#      --metrics-every without --metrics-out (usage error, exit 2).
#   3. sick fail — an injected-alert telemetry fixture must make
#      `hero_monitor --once` exit 1 and name the offending rule; acking
#      that rule must bring it back to exit 0.
#
# docs/OBSERVABILITY.md ("Run health") describes the layer under test.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" --target hero_train hero_eval hero_monitor \
    -j"$(nproc 2>/dev/null || echo 1)" > /dev/null

work=$(mktemp -d "${TMPDIR:-/tmp}/hero_monitor_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

train="$build_dir/tools/hero_train"
eval_bin="$build_dir/tools/hero_eval"
monitor="$build_dir/tools/hero_monitor"

# --- 1. healthy pass ------------------------------------------------------
echo "monitor-smoke: instrumented 2-episode run..."
"$train" --out "$work/ckpt" --seed 5 \
    --skill-episodes 1 --episodes 2 --hl-warmup 8 --hl-batch 8 \
    --metrics-out "$work/m.json" --metrics-every 1 \
    --telemetry-out "$work/run.jsonl" > "$work/train.log"

test -s "$work/m.json" || { echo "FAIL: no metrics snapshot written"; exit 1; }
grep -q '"phases"' "$work/m.json" \
    || { echo "FAIL: snapshot carries no phase tree"; exit 1; }
grep -q '"manifest"' "$work/m.json" \
    || { echo "FAIL: snapshot carries no run manifest"; exit 1; }
grep -q '"event": "run_start"' "$work/run.jsonl" \
    || { echo "FAIL: telemetry carries no run_start manifest"; exit 1; }
python3 - "$work/run.jsonl" <<'EOF' || exit 1
import json, sys

events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
eps = [e for e in events if e["event"] == "stage2/episode"]
if not eps:
    sys.exit("FAIL: telemetry carries no stage2/episode events")
slow = [e["episode"] for e in eps if not e.get("steps_per_sec", 0) > 0]
if slow:
    sys.exit(f"FAIL: stage2/episode without a positive steps_per_sec: {slow}")
print(f"ok: {len(eps)} stage2/episode events report steps_per_sec > 0")
EOF

if ! "$monitor" --metrics "$work/m.json" --telemetry "$work/run.jsonl" --once \
        > "$work/monitor_healthy.log"; then
    echo "FAIL: hero_monitor flagged a healthy run:"
    cat "$work/monitor_healthy.log"
    exit 1
fi
echo "ok: healthy run monitors clean"

# --- 2. flag parity -------------------------------------------------------
for bin in "$train" "$eval_bin"; do
    if "$bin" --metrics-every 2 > "$work/parity.log" 2>&1; then
        echo "FAIL: $(basename "$bin") accepted --metrics-every without --metrics-out"
        exit 1
    fi
    grep -q "metrics-out" "$work/parity.log" \
        || { echo "FAIL: $(basename "$bin") error does not mention --metrics-out"; exit 1; }
done
echo "ok: both tools reject --metrics-every without --metrics-out"

# --- 3. sick fail ---------------------------------------------------------
cat > "$work/sick.jsonl" <<'EOF'
{"event": "run_start", "t_s": 0.0, "tool": "hero_train", "seed": 5, "seq": 0}
{"event": "stage2/episode", "t_s": 1.0, "episode": 0, "reward": -3.0, "steps": 40, "seq": 1}
{"event": "alert", "t_s": 2.0, "rule": "nan_loss", "episode": 1, "value": 0.0, "threshold": 0.0, "message": "critic loss is NaN", "wallclock": false, "seq": 2}
EOF

set +e
"$monitor" --telemetry "$work/sick.jsonl" --once > "$work/monitor_sick.log"
sick_status=$?
set -e
if [ "$sick_status" -ne 1 ]; then
    echo "FAIL: expected exit 1 on injected alert, got $sick_status"
    cat "$work/monitor_sick.log"
    exit 1
fi
grep -q "nan_loss" "$work/monitor_sick.log" \
    || { echo "FAIL: sick verdict does not name the firing rule"; exit 1; }
echo "ok: injected alert fails the monitor and names nan_loss"

"$monitor" --telemetry "$work/sick.jsonl" --once --ack nan_loss > /dev/null \
    || { echo "FAIL: --ack nan_loss did not clear the verdict"; exit 1; }
echo "ok: acknowledged alert passes"

echo "monitor-smoke PASSED"
