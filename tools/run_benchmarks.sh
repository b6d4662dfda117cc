#!/usr/bin/env sh
# Builds the bench_json harness, regenerates the perf-trajectory snapshots
# (BENCH_nn.json, BENCH_train.json, BENCH_serve.json) at the repo root, then
# diffs them against the committed *.seed.json baselines and fails on
# regressions.
#
#   tools/run_benchmarks.sh [build_dir]
#
# Pass extra knobs through BENCH_FLAGS, e.g.
#   BENCH_FLAGS="--min-time 1.0 --train-episodes 16" tools/run_benchmarks.sh
#
# Regression gate knobs:
#   BENCH_REGRESSION_PCT   allowed slowdown per benchmark, percent (default 25
#                          — generous because QEMU/shared-runner timings swing
#                          by ±20%)
#   BENCH_SKIP_CHECK=1     regenerate snapshots without gating
#
# Only benchmarks present in both the fresh snapshot and the seed are
# compared, so newly added cases never fail the gate before their baseline
# lands.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root" > /dev/null

# Refuse to regenerate the perf baselines from an instrumented build: debug
# invariant checks and sanitizers slow the hot path by integer factors, and a
# BENCH_*.json written from such a build would poison every later regression
# comparison (docs/CORRECTNESS.md).
cache="$build_dir/CMakeCache.txt"
if [ -f "$cache" ]; then
    if grep -q '^HERO_DEBUG_CHECKS:BOOL=ON' "$cache"; then
        echo "ERROR: $build_dir was configured with HERO_DEBUG_CHECKS=ON —" >&2
        echo "       refusing to write BENCH_*.json from an instrumented build." >&2
        echo "       Re-run against a build dir configured with the default" >&2
        echo "       (HERO_DEBUG_CHECKS=OFF) settings." >&2
        exit 2
    fi
    if grep -E '^CMAKE_(CXX_FLAGS|EXE_LINKER_FLAGS)[^=]*=.*-fsanitize' "$cache" \
            > /dev/null; then
        echo "ERROR: $build_dir carries -fsanitize flags —" >&2
        echo "       refusing to write BENCH_*.json from a sanitizer build." >&2
        exit 2
    fi
fi

cmake --build "$build_dir" --target bench_json -j"$(nproc 2>/dev/null || echo 1)"

"$build_dir/bench/bench_json" \
    --nn-out "$repo_root/BENCH_nn.json" \
    --train-out "$repo_root/BENCH_train.json" \
    --dense-scenario "$repo_root/scenarios/dense_traffic.json" \
    ${BENCH_FLAGS:-}

echo "wrote $repo_root/BENCH_nn.json"
echo "wrote $repo_root/BENCH_train.json"

# --- serving snapshot (docs/SERVING.md §Throughput) ------------------------
# In-process entries (ServeQps/*, ServeLatency*) come straight from
# hero_loadgen --in-process: transport-free fused-pass numbers, stable enough
# to gate. The socket A/B entries (ServeSocketQps/*) measure the whole
# server — poll loop, framing, micro-batcher — and swing with machine load,
# so they are recorded under their own metric key, which the gate below does
# not compare.
cmake --build "$build_dir" --target hero_train hero_serve hero_loadgen \
    -j"$(nproc 2>/dev/null || echo 1)"

serve_work=$(mktemp -d "${TMPDIR:-/tmp}/hero_bench_serve.XXXXXX")
trap 'rm -rf "$serve_work"' EXIT INT TERM

"$build_dir/tools/hero_train" --out "$serve_work/ckpt" --seed 5 \
    --skill-episodes 1 --episodes 2 --hl-warmup 8 --hl-batch 8 \
    > "$serve_work/train.log"

"$build_dir/tools/hero_loadgen" --in-process --ckpt "$serve_work/ckpt" \
    --clients 16 --ticks 400 --warmup 40 \
    --bench-out "$repo_root/BENCH_serve.json" > "$serve_work/inproc.log"

# Socket A/B: best-of-3 interleaved pairs of the same synthetic closed-loop
# workload against --max-batch 16 then --max-batch 1.
sock="$serve_work/serve.sock"
socket_qps() {  # $1 = max-batch; prints qps
    "$build_dir/tools/hero_serve" --ckpt "$serve_work/ckpt" --socket "$sock" \
        --max-batch "$1" > "$serve_work/server.log" 2>&1 &
    server_pid=$!
    i=0
    while [ ! -S "$sock" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "server never listened" >&2; exit 1; }
        sleep 0.1
    done
    "$build_dir/tools/hero_loadgen" --socket "$sock" --clients 48 \
        --requests 100 --window 16 --synthetic --shutdown \
        > "$serve_work/ab.log"
    wait "$server_pid"
    awk '/qps/ {print $NF}' "$serve_work/ab.log"
}

best_mb16=0; best_mb1=0
for pair in 1 2 3; do
    q16=$(socket_qps 16)
    q1=$(socket_qps 1)
    best_mb16=$(awk "BEGIN {print ($q16 > $best_mb16) ? $q16 : $best_mb16}")
    best_mb1=$(awk "BEGIN {print ($q1 > $best_mb1) ? $q1 : $best_mb1}")
done
# Splice the socket entries into the snapshot, keeping the one-entry-per-line
# format tools/bench_gate.sh parses.
awk -v q16="$best_mb16" -v q1="$best_mb1" '
    $0 == "]}" {
        if (held != "") print held ","
        printf "  {\"name\": \"ServeSocketQps/mb16\", \"socket_qps\": %s},\n", q16
        printf "  {\"name\": \"ServeSocketQps/mb1\", \"socket_qps\": %s}\n", q1
        print "]}"
        held = ""
        next
    }
    { if (held != "") print held; held = $0 }
    END { if (held != "") print held }
' "$repo_root/BENCH_serve.json" > "$repo_root/BENCH_serve.json.tmp"
mv "$repo_root/BENCH_serve.json.tmp" "$repo_root/BENCH_serve.json"
ratio=$(awk "BEGIN {print ($best_mb1 > 0) ? $best_mb16 / $best_mb1 : 0}")
echo "serve socket A/B: mb16 $best_mb16 qps vs mb1 $best_mb1 qps (${ratio}x)"
echo "wrote $repo_root/BENCH_serve.json"

if [ "${BENCH_SKIP_CHECK:-0}" = "1" ]; then
    echo "BENCH_SKIP_CHECK=1 — skipping regression check"
    exit 0
fi

threshold=${BENCH_REGRESSION_PCT:-25}

# The comparison itself lives in tools/bench_gate.sh, which takes the metric
# direction explicitly (higher_is_worse for ns/iter, lower_is_worse for
# steps/sec) and carries its own polarity self-test.
status=0
echo "== regression check vs seed snapshots (threshold ${threshold}%) =="
echo "BENCH_nn.json vs BENCH_nn.seed.json (ns/iter, higher is worse):"
"$repo_root/tools/bench_gate.sh" \
    "$repo_root/BENCH_nn.json" "$repo_root/BENCH_nn.seed.json" \
    real_time_ns higher_is_worse "$threshold" || status=1
echo "BENCH_train.json vs BENCH_train.seed.json (steps/sec, lower is worse):"
"$repo_root/tools/bench_gate.sh" \
    "$repo_root/BENCH_train.json" "$repo_root/BENCH_train.seed.json" \
    steps_per_sec lower_is_worse "$threshold" || status=1
# Only the in-process serving entries are gated (keys qps / us); the
# ServeSocketQps entries carry the ungated socket_qps key on purpose —
# whole-server throughput swings too much with machine load to hard-gate.
echo "BENCH_serve.json vs BENCH_serve.seed.json (qps, lower is worse):"
"$repo_root/tools/bench_gate.sh" \
    "$repo_root/BENCH_serve.json" "$repo_root/BENCH_serve.seed.json" \
    qps lower_is_worse "$threshold" || status=1
echo "BENCH_serve.json vs BENCH_serve.seed.json (latency us, higher is worse):"
"$repo_root/tools/bench_gate.sh" \
    "$repo_root/BENCH_serve.json" "$repo_root/BENCH_serve.seed.json" \
    us higher_is_worse "$threshold" || status=1
# Flags-off instrumentation overhead: the whole bench run executes with the
# obs layer disabled (no --metrics-out), so the gate above already proves the
# dormant OBS_PHASE sites left the nn/train numbers inside the regression
# threshold. Additionally pin the per-site cost itself: a disabled scope is
# one relaxed atomic load and must stay in the noise floor.
python3 - "$repo_root/BENCH_nn.json" <<'PYEOF' || status=1
import json, sys

doc = json.load(open(sys.argv[1]))
entries = {e["name"]: e["real_time_ns"] for e in doc["benchmarks"]}
ns = entries.get("BM_PhaseScope/off")
if ns is None:
    sys.exit("BM_PhaseScope/off missing from BENCH_nn.json")
LIMIT_NS = 50.0  # generous for QEMU/shared runners; native cost is ~1-2 ns
if ns > LIMIT_NS:
    sys.exit(f"disabled OBS_PHASE scope costs {ns:.1f} ns/iter (limit {LIMIT_NS})")
print(f"ok: disabled OBS_PHASE scope {ns:.2f} ns/iter (limit {LIMIT_NS})")
PYEOF

# Spatial-index speedup gate (docs/PERFORMANCE.md §Spatial index): both sides
# are measured in this same run, so the ratio is immune to machine-speed
# drift. The shared index must keep dense-traffic stepping at least 4x the
# all-pairs baseline at V=128. That baseline lives in bench/bench_json.cpp
# (AllPairsSensing): the same step_all, then reach-pruned all-pairs lidar
# staging, the every-beam narrow phase and the full-scan camera of the test
# oracle (tests/support/sim_oracle.h) — src/ keeps only the indexed path.
python3 - "$repo_root/BENCH_train.json" <<'PYEOF' || status=1
import json, sys

doc = json.load(open(sys.argv[1]))
entries = {e["name"]: e["steps_per_sec"] for e in doc["benchmarks"]}
indexed = entries.get("BM_BatchStep/V128")
allpairs = entries.get("BM_BatchStep/V128_allpairs")
if indexed is None or allpairs is None:
    sys.exit("BM_BatchStep/V128 or BM_BatchStep/V128_allpairs missing from "
             "BENCH_train.json")
MIN_RATIO = 4.0
ratio = indexed / allpairs if allpairs > 0 else 0.0
if ratio < MIN_RATIO:
    sys.exit(f"spatial index speedup at V=128 is {ratio:.2f}x "
             f"(need >= {MIN_RATIO}x): indexed {indexed:.0f} steps/s vs "
             f"all-pairs {allpairs:.0f} steps/s")
print(f"ok: spatial index speedup at V=128 is {ratio:.2f}x "
      f"(need >= {MIN_RATIO}x)")
PYEOF

if [ "$status" -ne 0 ]; then
    echo "benchmark regression beyond ${threshold}% — failing (BENCH_SKIP_CHECK=1 to override)"
fi
exit "$status"
