#!/usr/bin/env sh
# Seed-determinism gate: runs hero_train twice with the same seed and fails
# unless the two runs are bitwise identical in everything that matters —
# the saved checkpoint directory and the telemetry JSONL stream (normalized:
# wall-clock fields stripped, lines canonically sorted because stage-1 skill
# threads interleave their writes nondeterministically while the *content*
# of every line is deterministic per-thread).
#
#   tools/check_determinism.sh [build_dir]
#
# Knobs:
#   DET_SEED            seed passed to both runs       (default 7)
#   DET_EPISODES        stage-2 episodes               (default 2)
#   DET_SKILL_EPISODES  stage-1 episodes per skill     (default 2)
#   DET_WORKERS         --num-workers for both runs    (default 1)
#   DET_BATCH_ENVS      --batch-envs for both runs     (default 0 = width 1)
#   DET_SCENARIO        --scenario config for both runs (default "" = off)
#   DET_SCENARIO_VEHICLES  --scenario-vehicles override (default 0 = config)
#
# Stage 2 collects through the batch-first rollout engine at width
# max(DET_BATCH_ENVS, 1) (docs/BATCHING.md): results are keyed to
# (seed, batch_envs), so two identically-seeded runs at the same width must
# agree bitwise. CI runs the gate at widths 1 and 16.
#
# With DET_WORKERS > 1 stage 1 trains the skills on the thread pool, one
# RNG stream per skill; the gate checks that path's same-seed
# self-consistency (docs/PARALLELISM.md). CI runs it at 4 workers.
#
# With DET_SCENARIO set the gate trains on a declarative scenario config
# instead of the built-in cooperative lane-change — CI uses this to pin
# the dense-traffic spatial-index paths (scenarios/dense_traffic.json at
# V=64) to the same bitwise contract.
#
# A diff here means a hidden entropy source crept in (an unseeded RNG,
# iteration over pointer-keyed containers, uninitialized reads feeding
# control flow) — exactly what lint rule R1 and docs/CORRECTNESS.md exist
# to keep out.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

seed=${DET_SEED:-7}
episodes=${DET_EPISODES:-2}
skill_episodes=${DET_SKILL_EPISODES:-2}
workers=${DET_WORKERS:-1}
batch_envs=${DET_BATCH_ENVS:-0}
scenario=${DET_SCENARIO:-}
scenario_vehicles=${DET_SCENARIO_VEHICLES:-0}

cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" --target hero_train -j"$(nproc 2>/dev/null || echo 1)" \
    > /dev/null

work=$(mktemp -d "${TMPDIR:-/tmp}/hero_determinism.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

run() {
    out_dir="$work/run$1"
    mkdir -p "$out_dir"
    "$build_dir/tools/hero_train" \
        --out "$out_dir/ckpt" \
        --seed "$seed" \
        --skill-episodes "$skill_episodes" \
        --episodes "$episodes" \
        --hl-warmup 8 --hl-batch 8 \
        --num-workers "$workers" \
        --batch-envs "$batch_envs" \
        ${scenario:+--scenario "$scenario"} \
        ${scenario:+--scenario-vehicles "$scenario_vehicles"} \
        --telemetry-out "$out_dir/telemetry.jsonl" \
        > "$out_dir/stdout.log"
}

echo "run 1/2 (seed $seed, $skill_episodes skill episodes, $episodes episodes, $workers workers, batch $batch_envs${scenario:+, scenario $scenario})..."
run 1
echo "run 2/2..."
run 2

# Strip wall-clock-derived fields (t_s timestamps, steps_per_sec throughput)
# and write-order fields (seq), re-serialize each event with sorted keys,
# then sort lines: thread interleaving cannot perturb the result, any payload
# difference still fails.
normalize() {
    python3 - "$1" "$2" <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
lines = []
with open(src) as f:
    for raw in f:
        raw = raw.strip()
        if not raw:
            continue
        event = json.loads(raw)
        # Alerts flagged wallclock (e.g. throughput_collapse) depend on
        # machine speed, not the seed; the run_end verdict/alert count can
        # inherit that dependence, so both are excluded from the diff.
        if event.get("event") == "alert" and event.get("wallclock"):
            continue
        if event.get("event") == "run_end":
            event.pop("verdict", None)
            event.pop("alerts", None)
        # The manifest digest hashes the full command line; the two runs
        # here differ only in --out / --telemetry-out paths, so it must
        # not participate in the diff.
        if event.get("event") == "run_start":
            event.pop("config_digest", None)
        event.pop("t_s", None)
        event.pop("seq", None)
        event.pop("steps_per_sec", None)
        lines.append(json.dumps(event, sort_keys=True))
lines.sort()
with open(dst, "w") as f:
    f.write("\n".join(lines) + "\n")
EOF
}

normalize "$work/run1/telemetry.jsonl" "$work/run1/telemetry.norm"
normalize "$work/run2/telemetry.jsonl" "$work/run2/telemetry.norm"

status=0
if ! diff -u "$work/run1/telemetry.norm" "$work/run2/telemetry.norm" \
        > "$work/telemetry.diff" 2>&1; then
    echo "FAIL: telemetry streams differ between identically-seeded runs:"
    head -n 40 "$work/telemetry.diff"
    status=1
else
    echo "ok: telemetry identical ($(wc -l < "$work/run1/telemetry.norm") events)"
fi

if ! diff -r "$work/run1/ckpt" "$work/run2/ckpt" > "$work/ckpt.diff" 2>&1; then
    echo "FAIL: checkpoint directories differ between identically-seeded runs:"
    head -n 40 "$work/ckpt.diff"
    status=1
else
    echo "ok: checkpoints bitwise identical"
fi

if [ "$status" -ne 0 ]; then
    echo "seed-determinism check FAILED (seed $seed)"
fi
exit "$status"
