#!/usr/bin/env python3
"""Same-run A/B of a perfbench workload: a base revision against the working tree.

    python3 tools/ab_bench.py --base HEAD~1 --workload coop3_serial \\
        --pairs 5 --seconds 12 --seed 104729 [--trace 0]

Exports the base revision with `git archive` into a temporary directory (no
network, no worktree), then runs `python3 perfbench/run.py` in that copy and
in the working tree, one run of each per pair. The order alternates from
pair to pair (base first in even pairs), so a slow drift of the host lands
on both sides alike, and both runs of pair i use seed K+i. Each side builds
its own .bench_build/ on its first run; with --workdir DIR the exported
base (DIR/<commit>) and its build are kept and reused by later runs.

Prints, for every metric the runs report, the median of each side, the
interquartile range of the base runs, the median, min and max over pairs of
the ratio change/base, and in how many pairs the change moved the better way
(directions from BENCHMARK.json). The base IQR is the yardstick for a gain:
the change's median should differ from the base median by more than it.
Exits 1 if any run is not `correct` or reports failed operations, 2 if a
run produced no result line.
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


def format_rows(rows):
    out = [f"{'metric':<28} {'base':>12} {'base IQR':>10} {'change':>12} {'ratio':>7} "
           f"{'min':>7} {'max':>7}  better in"]
    for r in rows:
        ratio = (f"{r['ratio']:7.3f} {r['ratio_min']:7.3f} {r['ratio_max']:7.3f}"
                 if "ratio" in r else f"{'-':>7} {'-':>7} {'-':>7}")
        better = f"{r['better_pairs']}/{r['pairs']}" if "better_pairs" in r else ""
        out.append(f"{r['name']:<28} {r['base']:12.6g} {r['base_iqr']:10.4g} "
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


def run_side(tree, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError:
        sys.stderr.write(proc.stderr)
        print(f"ab_bench: no result from {' '.join(cmd)} in {tree} (exit {proc.returncode})",
              file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", help="keep the exported base and its build here")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    tmp = None if args.workdir else tempfile.mkdtemp(prefix="ab_bench.")
    results = []
    bad = []
    try:
        trees = {"base": export_base(args.base, args.workdir or tmp), "change": ROOT}
        for i, seed, order in schedule(args.pairs, args.seed):
            pair = {}
            for side in order:
                res = run_side(trees[side], args, seed)
                why = run_failed(res)
                if why:
                    bad.append(f"pair {i} {side} (seed {seed}): {why}")
                pair[side] = res
                print(f"ab_bench: pair {i} seed {seed} {side} done"
                      + (f" [{why}]" if why else ""), file=sys.stderr, flush=True)
            results.append((pair["base"], pair["change"]))
    finally:
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}, base {args.base}, {args.pairs} pairs, "
          f"--seconds {args.seconds}, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"--trace {args.trace}")
    print(format_rows(summarize(results, directions(ROOT))))
    for line in bad:
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
