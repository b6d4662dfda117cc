#!/usr/bin/env python3
"""Same-run A/B of a benchmark workload: a base revision against the working tree.

    python3 tools/ab_bench.py --base HEAD~1 --workload coop3_serial \\
        --pairs 5 --seconds 12 --seed 104729 [--trace 0]
    python3 tools/ab_bench.py --base HEAD~1 --workload bench_json --pairs 10

Exports the base revision with `git archive` into a temporary directory (no
network, no worktree), then runs the workload in that copy and in the
working tree, one run of each per pair. The order alternates from pair to
pair (base first in even pairs), so a slow drift of the host lands on both
sides alike. With --workdir DIR the exported base (DIR/<commit>) and its
build are kept and reused by later runs.

A perfbench workload (coop3_b16, coop3_serial, serve_fleet32) runs as
`python3 perfbench/run.py`, which builds its side's .bench_build/ on the
first run; both runs of pair i use seed K+i. The workload `bench_json` runs
the op-level benchmark binary (bench/bench_json.cpp), built once per side
as target bench_json in the .bench_build/hero tree perfbench configures,
with its default settings; every entry of its two snapshots is a metric.
--seconds, --seed and --trace are perfbench's and are refused with it.

Prints, for every metric the runs report, the median of each side, the
interquartile range of the base runs, the median, min and max over pairs of
the ratio change/base, and in how many pairs the change moved the better way
(perfbench directions from BENCHMARK.json; a bench_json entry's from its unit
key, real_time_ns lower and steps_per_sec higher). The base IQR is the
yardstick for a gain: the change's median should differ from the base median
by more than it. Exits 1 if any run is not `correct` or reports failed
operations, 2 if a run produced no result: a perfbench run without a result
line, or a bench_json run that exits non-zero or writes no snapshot.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = "bench_json"
# The direction each bench_json unit key is better in.
UNIT_BETTER = {"real_time_ns": "lower", "steps_per_sec": "higher"}
# Flags only perfbench workloads take, and their defaults.
PERFBENCH_DEFAULTS = {"seconds": 12.0, "seed": 1, "trace": 0}


class NoResult(Exception):
    """A run that produced no result; it ends the A/B with exit status 2."""

    def __init__(self, cmd, tree, why, stderr=""):
        super().__init__(f"no result from {' '.join(cmd)} in {tree} ({why})")
        self.stderr = stderr


def schedule(pairs, seed):
    """(pair, seed, sides in run order) for every pair: both runs of pair i
    use seed+i, and the side that runs first alternates."""
    out = []
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        out.append((i, seed + i, order))
    return out


def parse_result(stdout):
    """The JSON object on the last non-empty stdout line of run.py."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def run_failed(result):
    """Why a run does not count, or None when it is correct and clean."""
    if not result.get("correct"):
        return "not correct"
    if result.get("failed", 0):
        return f"{result['failed']} of {result.get('attempted', '?')} operations failed"
    return None


def directions(root):
    """metric name -> "higher"/"lower" from BENCHMARK.json, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for entry in spec.get(group, []):
            out[entry["name"]] = entry.get("better", "")
    return out


def snapshot_result(docs):
    """bench_json's snapshots as one run result: every entry is a metric whose
    unit is its unit key (UNIT_BETTER). Raises ValueError on an entry with no
    unit key or more than one."""
    metrics = {}
    for doc in docs:
        for entry in doc["benchmarks"]:
            keys = [k for k in UNIT_BETTER if k in entry]
            if len(keys) != 1:
                raise ValueError(f"entry {entry.get('name')!r} needs exactly one of "
                                 f"{', '.join(UNIT_BETTER)}")
            metrics[entry["name"]] = {"value": float(entry[keys[0]]), "unit": keys[0]}
    return {"correct": True, "metrics": metrics}


def unit_directions(pairs):
    """metric name -> "higher"/"lower" from the unit keys of bench_json results."""
    return {name: UNIT_BETTER[m["unit"]]
            for pair in pairs for result in pair for name, m in result["metrics"].items()}


def iqr(values):
    """Distance between the first and third quartiles (linear interpolation
    between order statistics); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, better=None):
    """One row per metric from a list of (base_result, change_result) pairs:
    both medians, the base runs' IQR and the median, min and max of the
    per-pair ratios."""
    better = better or {}
    names = []
    for base, change in pairs:
        for name in list(base["metrics"]) + list(change["metrics"]):
            if name not in names:
                names.append(name)
    rows = []
    for name in names:
        b = [p[0]["metrics"][name]["value"] for p in pairs if name in p[0]["metrics"]
             and name in p[1]["metrics"]]
        c = [p[1]["metrics"][name]["value"] for p in pairs if name in p[0]["metrics"]
             and name in p[1]["metrics"]]
        if not b:
            continue
        ratios = [cv / bv for bv, cv in zip(b, c) if bv]
        row = {"name": name, "base": statistics.median(b), "base_iqr": iqr(b),
               "change": statistics.median(c), "pairs": len(b)}
        if ratios:
            row.update(ratio=statistics.median(ratios), ratio_min=min(ratios),
                       ratio_max=max(ratios))
            direction = better.get(name)
            if direction in ("higher", "lower"):
                row["better_pairs"] = sum(
                    1 for r in ratios if (r > 1.0 if direction == "higher" else r < 1.0))
        rows.append(row)
    return rows


def one_sided(pairs):
    """(metrics only base runs report, metrics only change runs report): an
    entry added or removed between the revisions, which has no ratio."""
    base = {name for b, _ in pairs for name in b["metrics"]}
    change = {name for _, c in pairs for name in c["metrics"]}
    return sorted(base - change), sorted(change - base)


def format_rows(rows):
    w = max([28] + [len(r["name"]) for r in rows])
    out = [f"{'metric':<{w}} {'base':>12} {'base IQR':>10} {'change':>12} {'ratio':>7} "
           f"{'min':>7} {'max':>7}  better in"]
    for r in rows:
        ratio = (f"{r['ratio']:7.3f} {r['ratio_min']:7.3f} {r['ratio_max']:7.3f}"
                 if "ratio" in r else f"{'-':>7} {'-':>7} {'-':>7}")
        better = f"{r['better_pairs']}/{r['pairs']}" if "better_pairs" in r else ""
        out.append(f"{r['name']:<{w}} {r['base']:12.6g} {r['base_iqr']:10.4g} "
                   f"{r['change']:12.6g} {ratio}  {better}".rstrip())
    return "\n".join(out)


def export_base(rev, workdir):
    """The tree of `rev` under workdir/<commit>, exported with git archive
    unless an earlier run left it there."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    tree = os.path.join(workdir, sha)
    if os.path.isdir(tree):
        return tree
    partial = tree + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"ab_bench: git archive {rev} failed")
    os.rename(partial, tree)
    return tree


def run_perfbench(tree, args, seed):
    """One perfbench run in `tree`: its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError:
        raise NoResult(cmd, tree, f"exit {proc.returncode}", proc.stderr) from None


def build_bench_json(tree):
    """Builds target bench_json in tree's .bench_build/hero, configured as
    perfbench configures it; returns the binary."""
    hero = os.path.join(tree, ".bench_build", "hero")
    steps = [["cmake", "--build", hero, "--target", BENCH_JSON,
              "-j", str(max(1, min(3, os.cpu_count() or 1)))]]
    if not os.path.isfile(os.path.join(hero, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", tree, "-B", hero, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise SystemExit(f"ab_bench: build step failed: {' '.join(cmd)}")
    return os.path.join(hero, "bench", BENCH_JSON)


def run_bench_json(tree, binary, out_dir):
    """One bench_json run at its default settings in `tree` (its dense
    scenario path is relative to it), writing its snapshots under out_dir:
    both snapshots as one result."""
    paths = [os.path.join(out_dir, "nn.json"), os.path.join(out_dir, "train.json")]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--nn-out", paths[0], "--train-out", paths[1]]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise NoResult(cmd, tree, f"exit {proc.returncode}", proc.stderr)
    try:
        docs = []
        for path in paths:
            with open(path) as f:
                docs.append(json.load(f))
        return snapshot_result(docs)
    except (OSError, ValueError, KeyError) as e:
        raise NoResult(cmd, tree, f"no snapshot: {e}", proc.stderr) from None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="a perfbench workload, or bench_json")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, help="perfbench only (default 12)")
    ap.add_argument("--seed", type=int, help="perfbench only (default 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), help="perfbench only (default 0)")
    ap.add_argument("--workdir", help="keep the exported base and its build here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for name, default in PERFBENCH_DEFAULTS.items():
        if args.workload != BENCH_JSON:
            if getattr(args, name) is None:
                setattr(args, name, default)
        elif getattr(args, name) is not None:
            ap.error(f"--{name} is a perfbench flag; --workload bench_json takes none")
    return args


def main():
    args = parse_args()
    tmp = tempfile.mkdtemp(prefix="ab_bench.")
    results = []
    bad = []
    try:
        trees = {"base": export_base(args.base, args.workdir or tmp), "change": ROOT}
        if args.workload == BENCH_JSON:
            binaries = {side: build_bench_json(tree) for side, tree in trees.items()}

            def run(side, _seed):
                return run_bench_json(trees[side], binaries[side], tmp)
        else:
            def run(side, seed):
                return run_perfbench(trees[side], args, seed)
        for i, seed, order in schedule(args.pairs, args.seed or 0):
            label = f"pair {i}" + (f" seed {seed}" if args.seed is not None else "")
            pair = {}
            for side in order:
                res = run(side, seed)
                why = run_failed(res)
                if why:
                    bad.append(f"{label} {side}: {why}")
                pair[side] = res
                print(f"ab_bench: {label} {side} done" + (f" [{why}]" if why else ""),
                      file=sys.stderr, flush=True)
            results.append((pair["base"], pair["change"]))
    except NoResult as e:
        sys.stderr.write(e.stderr)
        print(f"ab_bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.workload == BENCH_JSON:
        print(f"workload bench_json, base {args.base}, {args.pairs} pairs, default settings")
        better = unit_directions(results)
    else:
        print(f"workload {args.workload}, base {args.base}, {args.pairs} pairs, "
              f"--seconds {args.seconds}, seeds {args.seed}..{args.seed + args.pairs - 1}, "
              f"--trace {args.trace}")
        better = directions(ROOT)
    print(format_rows(summarize(results, better)))
    for side, names in zip(("base", "change"), one_sided(results)):
        if names:
            print(f"only in {side}: {', '.join(names)}")
    for line in bad:
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
