#!/usr/bin/env python3
"""End-to-end benchmark of HERO training and policy serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coop3_b16 --seed 1 --seconds 12 --trace 0

Builds the repository and the workload binary under .bench_build/ (the
first run builds from source), runs one workload in it, checks its outputs,
and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run of the same workload and seed. perfbench/README.md describes the
workloads and every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as m  # noqa: E402

WORKLOADS = ("coop3_b16", "coop3_serial", "serve_fleet32")
BUILD = ".bench_build"
# The workload binary's time limit, build time aside: every run, traced ones
# too, ends well inside it.
WORKLOAD_TIMEOUT_S = 160.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build command, showing its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(root):
    """Builds the repository's libraries, then the workload binary; returns its
    path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise SystemExit("perfbench: run from the root of a full checkout "
                         "(CMakeLists.txt and src/ not found)")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    hero = os.path.join(root, BUILD, "hero")
    bench = os.path.join(root, BUILD, "perfbench")
    if not os.path.isfile(os.path.join(hero, "CMakeCache.txt")):
        log("configuring the repository (first run builds from source)")
        run_quiet(["cmake", "-S", root, "-B", hero, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", hero, "--target", "hero_serve_lib", "-j", jobs])
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", bench,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   f"-DHERO_SOURCE_DIR={root}", f"-DHERO_BUILD_DIR={hero}"])
    run_quiet(["cmake", "--build", bench, "-j", jobs])
    return os.path.join(bench, "perfbench_workload")


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# Training workloads.

def stage2_rate(chunks):
    """Env steps per second over all timed chunks."""
    return sum(c["steps"] for c in chunks) / sum(c["seconds"] for c in chunks)


def train_e2e(raw):
    main = raw["main"]
    served = serving(raw["passes"])
    attempted = sum(c["episodes"] for c in main["chunks"]) + served["attempted"]
    failed = (sum(c["failed"] for c in main["chunks"]) + main["warmup_failed"]
              + served["failed"])
    values = {
        "steps_per_s": metric(stage2_rate(main["chunks"]), "1/s"),
        "skills_s": metric((main["skills_s"] + raw["skills_again_s"]) / 2, "s"),
        "p50_us": metric(served["p50_us"], "us"),
        "p99_us": metric(served["p99_us"], "us"),
        # Constructing the trainer, then setting up the server for its policy.
        "setup_s": metric(statistics.median(raw["setup_s"])
                          + statistics.median(raw["serve_setup_s"]), "s"),
    }
    return failed == 0 and served["ok"], attempted, failed, values


def train_layers(raw):
    main, replay = raw["main"], raw["replay"]
    chunks = main["chunks"]
    steps = sum(c["steps"] for c in chunks)
    wall = sum(c["seconds"] for c in chunks)
    failed = sum(c["failed"] for c in chunks) + main["warmup_failed"]
    # Determinism: the untraced replay must reproduce every digest.
    mismatched = sum(c["episodes"] for c, r in zip(chunks, replay["chunks"])
                     if c["digest"] != r["digest"])
    if main["skills_digest"] != replay["skills_digest"]:
        mismatched = sum(c["episodes"] for c in chunks)
    failed += mismatched + sum(c["failed"] for c in replay["chunks"])
    stage2 = main["stage2_phases"]
    cov = m.coverage(stage2, "stage2", wall)
    overhead = wall / sum(c["seconds"] for c in replay["chunks"]) - 1.0
    values = {name: metric(v, layer_unit(name)) for name, v in m.stage2_layers(stage2, steps).items()}
    s1 = m.stage1_layers(main["stage1_phases"])
    values.update({name: metric(v, layer_unit(name)) for name, v in s1.items()})
    values.update(serve_layers_absent())
    values["trace.coverage"] = metric(cov, "ratio")
    values["trace.overhead"] = metric(overhead, "ratio")
    log(f"coverage {cov:.4f}, overhead {overhead:+.3f}, digests mismatched on {mismatched} episodes")
    correct = failed == 0 and cov >= m.MIN_COVERAGE
    return correct, sum(c["episodes"] for c in chunks), failed, values


# --------------------------------------------------------------------------
# Serving workload.

def serve_checked(passes):
    """Every step and slice of every pass: all the requests the run sent."""
    out = []
    for p in passes:
        out += ([p["warmup"]] if p["warmup"] else []) + p["reference"] + p["saturation"]
        out += p["steps"]
    return out


def saturation_rate(run):
    """Answers per second over all closed-loop slices."""
    return m.achieved_rate(m.merge_steps(run["saturation"]))


def serving(passes):
    """Latency at the reference rate and the request checks of one served
    policy (the first pass is the untraced one). A policy that meets the
    latency limit at no ladder step is not correct."""
    run = passes[0]
    refs, steps = run["reference"], run["steps"]
    ref = m.merge_steps(refs)
    p99, slices = m.median_p99([r["latency_us"] for r in refs])
    checked = serve_checked(passes)
    top = m.max_rate([ref] + steps)
    log(f"reference p99: median over {slices} slices ({len(ref['latency_us'])} samples); "
        f"ladder ran {len(steps)} steps")
    return {
        "attempted": sum(s["sent"] for s in checked),
        "failed": sum(s["failed"] for s in checked),
        "p50_us": m.percentile(ref["latency_us"], 50),
        "p99_us": p99 if p99 is not None else 0.0,
        "ok": p99 is not None and top > 0,
    }


def serve_e2e(raw):
    served = serving(raw["passes"])
    values = {
        "steps_per_s": metric(saturation_rate(raw["passes"][0]), "1/s"),
        "skills_s": metric((raw["skills_s"] + raw["skills_again_s"]) / 2, "s"),
        "p50_us": metric(served["p50_us"], "us"),
        "p99_us": metric(served["p99_us"], "us"),
        "setup_s": metric(statistics.median(raw["setup_s"]), "s"),
    }
    return (served["failed"] == 0 and served["ok"], served["attempted"], served["failed"],
            values)


def server_view(step):
    """The server's own figures for one traced step."""
    srv = step["server"]
    hists = srv["metrics"]["histograms"]
    act = m.find(srv["phases"], "serve_act")
    return {
        "act_batch_us": act["total_us"] / act["count"] if act and act["count"] else 0.0,
        "batch_rows": hists.get("serve.batch_size", {}).get("mean", 0.0),
        "queue_depth": hists.get("serve.queue_depth", {}).get("mean", 0.0),
        "p50_us": hists.get("serve.latency_us", {}).get("p50", 0.0),
        "p99_us": hists.get("serve.latency_us", {}).get("p99", 0.0),
    }


def serve_layers(raw):
    traced, untraced = raw["passes"]
    refs, steps = traced["reference"], traced["steps"]
    checked = serve_checked(raw["passes"])
    views = [server_view(r) for r in refs]
    ref = {k: statistics.median(v[k] for v in views) for k in views[0]}
    # The highest step that met the limit, else the reference rate.
    passing = [s for s in steps if m.step_passes(s)]
    top_step = max(passing, key=lambda s: s["rate"]) if passing else m.merge_steps(refs)
    top = server_view(top_step) if passing else ref
    attempted = sum(s["sent"] for s in checked)
    failed = sum(s["failed"] for s in checked)
    overhead = saturation_rate(untraced) / saturation_rate(traced) - 1.0
    values = {name: metric(0.0, layer_unit(name)) for name in TRAIN_LAYERS}
    values.update({
        "serve.act_batch_us": metric(ref["act_batch_us"], "us"),
        "serve.batch_rows": metric(ref["batch_rows"], "rows"),
        "serve.queue_depth": metric(ref["queue_depth"], "requests"),
        "serve.server_p50_us": metric(ref["p50_us"], "us"),
        "serve.server_p99_us": metric(ref["p99_us"], "us"),
        "serve.top_act_batch_us": metric(top["act_batch_us"], "us"),
        "serve.top_batch_rows": metric(top["batch_rows"], "rows"),
        "serve.gen_late_us": metric(m.percentile(top_step["gen_late_us"], 99), "us"),
        "serve.max_rate_rps": metric(m.max_rate([m.merge_steps(refs)] + steps), "1/s"),
        "trace.coverage": metric(0.0, "ratio"),
        "trace.overhead": metric(overhead, "ratio"),
    })
    return failed == 0, attempted, failed, values


# --------------------------------------------------------------------------
# Per-layer metric names and units (BENCHMARK.json lists the same set).

TRAIN_LAYERS = (
    "sim.step_ns", "sim.obs_ns",
    "rollout.total_ns", "rollout.select_ns", "rollout.skills_ns", "rollout.accumulate_ns",
    "opponent.predict_ns", "opponent.predict_calls", "opponent.update_ns",
    "learner.update_ns", "learner.update_calls", "learner.high_ns", "learner.replay_ns",
    "learner.merge_ns",
    "nn.forward_ns", "nn.backward_ns", "nn.forward_calls", "nn.backward_calls",
    "nn.forward_ns_per_call", "nn.backward_ns_per_call",
    "skills.update_ns", "skills.update_calls", "skills.sim_ns",
)
SERVE_LAYERS = (
    "serve.act_batch_us", "serve.batch_rows", "serve.queue_depth", "serve.server_p50_us",
    "serve.server_p99_us", "serve.top_act_batch_us", "serve.top_batch_rows",
    "serve.gen_late_us", "serve.max_rate_rps",
)


def layer_unit(name):
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith("_ns_per_call"):
        return "ns/call"
    if name.endswith("_calls"):
        return "calls/step"
    if name.endswith("_ns"):
        return "ns/step"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_rows"):
        return "rows"
    if name == "serve.queue_depth":
        return "requests"
    return "ratio"


def serve_layers_absent():
    return {name: metric(0.0, layer_unit(name)) for name in SERVE_LAYERS}


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--limit-us", str(m.LIMIT_US), "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload binary exited with {proc.returncode}")
    raw = json.loads(proc.stdout)

    if raw["kind"] == "train":
        summarize = train_layers if args.trace else train_e2e
    else:
        summarize = serve_layers if args.trace else serve_e2e
    correct, attempted, failed, values = summarize(raw)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": values}))


if __name__ == "__main__":
    main()
