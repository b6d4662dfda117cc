#!/usr/bin/env sh
# Policy-server smoke gate: proves the hero_serve stack end to end.
#
#   tools/serve_smoke.sh [build_dir]
#
#   1. flag parity     — hero_serve and hero_loadgen must both reject
#                        --metrics-every without --metrics-out (exit 2).
#   2. version gate    — a checkpoint whose manifest declares a future
#                        format version must be rejected at startup with a
#                        message naming the mismatch.
#   3. reload-under-load — a socket run with periodic hot reloads must
#                        complete with zero dropped requests (hero_loadgen
#                        exits nonzero on any drop), and the server's metrics
#                        snapshot must carry the serving histograms with p99.
#   4. batching wins   — interleaved A/B pairs (--max-batch 16 vs
#                        --max-batch 1, same clients/window) must show
#                        cross-request batching beating batch-size-1 serving.
#                        The floor asserted here (>= 1.5x best-of-N) is
#                        deliberately below the ~2x the reference box
#                        measures (docs/SERVING.md §Throughput): this smoke
#                        runs on noisy shared CI hardware.
#   5. in-process gate — hero_loadgen --in-process must report a fused-pass
#                        speedup >= 1.1x (transport-free lower bound).
#
# docs/SERVING.md describes the layer under test.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" --target hero_train hero_serve hero_loadgen \
    -j"$(nproc 2>/dev/null || echo 1)" > /dev/null

work=$(mktemp -d "${TMPDIR:-/tmp}/hero_serve_smoke.XXXXXX")
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

train="$build_dir/tools/hero_train"
serve="$build_dir/tools/hero_serve"
loadgen="$build_dir/tools/hero_loadgen"
sock="$work/serve.sock"

# Starts hero_serve in the background ($1 = ckpt dir, $2 = max-batch,
# rest = extra flags) and waits for the socket to accept.
start_server() {
    ckpt_dir=$1; mb=$2; shift 2
    "$serve" --ckpt "$ckpt_dir" --socket "$sock" --max-batch "$mb" "$@" \
        > "$work/server.log" 2>&1 &
    server_pid=$!
    i=0
    while [ ! -S "$sock" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "FAIL: server did not open $sock"; cat "$work/server.log"
            exit 1
        fi
        kill -0 "$server_pid" 2>/dev/null || {
            echo "FAIL: server exited before listening"; cat "$work/server.log"
            exit 1
        }
        sleep 0.1
    done
}

# Waits for the background server to exit and checks it exited 0.
stop_server_clean() {
    set +e
    wait "$server_pid"
    status=$?
    set -e
    server_pid=""
    if [ "$status" -ne 0 ]; then
        echo "FAIL: hero_serve exited $status"; cat "$work/server.log"
        exit 1
    fi
}

echo "serve-smoke: training throwaway checkpoint..."
"$train" --out "$work/ckpt" --seed 5 \
    --skill-episodes 1 --episodes 2 --hl-warmup 8 --hl-batch 8 \
    > "$work/train.log"
test -s "$work/ckpt/checkpoint.json" \
    || { echo "FAIL: training left no checkpoint manifest"; exit 1; }

# --- 1. flag parity -------------------------------------------------------
for bin in "$serve" "$loadgen"; do
    if "$bin" --metrics-every 2 > "$work/parity.log" 2>&1; then
        echo "FAIL: $(basename "$bin") accepted --metrics-every without --metrics-out"
        exit 1
    fi
    grep -q "metrics-out" "$work/parity.log" \
        || { echo "FAIL: $(basename "$bin") error does not mention --metrics-out"; exit 1; }
done
echo "ok: both tools reject --metrics-every without --metrics-out"

# --- 2. checkpoint version gate -------------------------------------------
cp -r "$work/ckpt" "$work/ckpt_future"
sed 's/"checkpoint_format": [0-9]*/"checkpoint_format": 99/' \
    "$work/ckpt/checkpoint.json" > "$work/ckpt_future/checkpoint.json"
if "$serve" --ckpt "$work/ckpt_future" --socket "$sock" \
        > "$work/future.log" 2>&1; then
    echo "FAIL: hero_serve accepted a format-version-99 checkpoint"
    exit 1
fi
grep -qi "format" "$work/future.log" \
    || { echo "FAIL: version rejection does not name the format mismatch"; exit 1; }
echo "ok: future-format checkpoint rejected at startup"

# --- 3. hot reload under load, zero drops ---------------------------------
echo "serve-smoke: reload-under-load run..."
start_server "$work/ckpt" 16 --metrics-out "$work/serve_m.json"
"$loadgen" --socket "$sock" --clients 8 --requests 100 --window 4 \
    --reload-every 50 --reload-dir "$work/ckpt" --shutdown \
    > "$work/reload.log" \
    || { echo "FAIL: drops during hot reload"; cat "$work/reload.log"; exit 1; }
grep -q "(0 dropped)" "$work/reload.log" \
    || { echo "FAIL: loadgen did not report zero drops"; cat "$work/reload.log"; exit 1; }
stop_server_clean
grep -q "serve.latency_us" "$work/serve_m.json" \
    || { echo "FAIL: snapshot carries no serve.latency_us histogram"; exit 1; }
grep -q "serve.batch_size" "$work/serve_m.json" \
    || { echo "FAIL: snapshot carries no serve.batch_size histogram"; exit 1; }
grep -q '"p99"' "$work/serve_m.json" \
    || { echo "FAIL: snapshot histograms carry no p99"; exit 1; }
echo "ok: hot reload under load, zero drops, histograms snapshotted"

# --- 4. cross-request batching beats batch-size-1 serving -----------------
# One A/B pair = the same synthetic closed-loop workload against
# --max-batch 16 then --max-batch 1. Pairs are interleaved so machine-load
# drift hits both sides; the gate takes the best ratio of the pairs.
run_socket_qps() {  # $1 = max-batch; prints qps
    start_server "$work/ckpt" "$1" --max-wait-us 1000
    "$loadgen" --socket "$sock" --clients 48 --requests 100 --window 16 \
        --synthetic --shutdown > "$work/ab.log" \
        || { echo "FAIL: loadgen dropped requests in A/B run" >&2
             cat "$work/ab.log" >&2; exit 1; }
    stop_server_clean
    awk '/qps/ {print $NF}' "$work/ab.log"
}

echo "serve-smoke: batched-vs-single A/B (3 interleaved pairs)..."
best_ratio=0
pair=1
while [ "$pair" -le 3 ]; do
    qps_b=$(run_socket_qps 16)
    qps_s=$(run_socket_qps 1)
    ratio=$(awk "BEGIN {print ($qps_s > 0) ? $qps_b / $qps_s : 0}")
    echo "  pair $pair: batched $qps_b qps, single $qps_s qps, ratio $ratio"
    best_ratio=$(awk "BEGIN {print ($ratio > $best_ratio) ? $ratio : $best_ratio}")
    pair=$((pair + 1))
done
if [ "$(awk "BEGIN {print ($best_ratio >= 1.5) ? 1 : 0}")" -ne 1 ]; then
    echo "FAIL: best batched/single ratio $best_ratio < 1.5"
    exit 1
fi
echo "ok: cross-request batching up to ${best_ratio}x over batch-size-1"

# --- 5. in-process fused-pass gate ----------------------------------------
"$loadgen" --in-process --ckpt "$work/ckpt" --clients 16 --ticks 200 \
    --warmup 20 --min-speedup 1.1 > "$work/inproc.log" \
    || { echo "FAIL: in-process speedup below 1.1x"; cat "$work/inproc.log"; exit 1; }
echo "ok: in-process fused pass >= 1.1x"

echo "serve-smoke PASSED"
