"""Turns the workload binary's raw measurements into the benchmark's metrics.

Pure functions only (no I/O), so perfbench/test_metrics.py can check every
rule: percentiles and their sample-count rule, the max-rate ladder rule, and
the conversion from the phase tree to time per step.
"""

import math
import statistics

# Latency limit on p99 for the max-rate ladder (microseconds). It sits above
# the server's 1 ms batching deadline.
LIMIT_US = 2000.0
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# Latency samples are judged in windows of this many requests (each window
# supports its own p99); a step's p99 is the median over its windows, so one
# scheduling stall of the host does not decide a whole step.
WINDOW = 1000
# Coverage gate: the phase tree must account for this share of the timed
# stage-2 wall clock.
MIN_COVERAGE = 0.95


# --------------------------------------------------------------------------
# Percentiles.

def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported(n, q):
    """True when n samples leave at least MIN_BEYOND beyond percentile q."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def windows(values, size=WINDOW):
    """Consecutive windows of `size` samples; a short tail joins the last."""
    count = len(values) // size
    return [values[i * size:len(values) if i == count - 1 else (i + 1) * size]
            for i in range(count)]


def median_p99(groups):
    """Median of the p99 of each group that supports its p99, and how many
    groups did; (None, 0) when none does."""
    p99s = [percentile(g, 99) for g in groups if supported(len(g), 99)]
    return (statistics.median(p99s), len(p99s)) if p99s else (None, 0)


# --------------------------------------------------------------------------
# The serving ladder.

def backlog_grows(step, limit_us=LIMIT_US):
    """An open-loop step whose sends fall further behind schedule in its
    second half than in its first, by more than half the latency limit."""
    return step["late_second_us"] - step["late_first_us"] > 0.5 * limit_us


def step_passes(step, limit_us=LIMIT_US):
    """A ladder step meets the limit when no request failed or went
    unanswered, its windowed p99 is supported and within the limit, and its
    backlog does not grow."""
    if step["failed"] > 0 or step["received"] != step["sent"]:
        return False
    p99, _ = median_p99(windows(step["latency_us"]))
    if p99 is None or p99 > limit_us:
        return False
    return not backlog_grows(step, limit_us)


def merge_steps(slices):
    """One step from slices run at the same rate: samples concatenated,
    counts and wall time summed, schedule lateness averaged."""
    n = len(slices)
    return {
        "rate": slices[0]["rate"],
        "sent": sum(s["sent"] for s in slices),
        "received": sum(s["received"] for s in slices),
        "failed": sum(s["failed"] for s in slices),
        "wall_s": sum(s["wall_s"] for s in slices),
        "late_first_us": sum(s["late_first_us"] for s in slices) / n,
        "late_second_us": sum(s["late_second_us"] for s in slices) / n,
        "latency_us": [x for s in slices for x in s["latency_us"]],
        "gen_late_us": [x for s in slices for x in s["gen_late_us"]],
    }


def achieved_rate(step):
    return step["received"] / step["wall_s"] if step["wall_s"] > 0 else 0.0


def max_rate(steps, limit_us=LIMIT_US):
    """Achieved rate of the highest-rate step that meets the limit, or 0 when
    none does. A failing step does not hide a higher passing one: at middling
    rates the batcher's deadline, not load, sets the latency."""
    best = None
    for step in steps:
        if step_passes(step, limit_us) and (best is None or step["rate"] > best["rate"]):
            best = step
    return achieved_rate(best) if best else 0.0


# --------------------------------------------------------------------------
# Phase tree -> per-layer time.

def by_name(roots):
    """Sums every node of the tree by phase name: {name: {"total_us",
    "self_us", "count"}}. Self time is a node's total minus its children's
    totals."""
    out = {}

    def visit(node):
        child_total = sum(c["total_us"] for c in node["children"])
        agg = out.setdefault(node["name"], {"total_us": 0.0, "self_us": 0.0, "count": 0})
        agg["total_us"] += node["total_us"]
        agg["self_us"] += node["total_us"] - child_total
        agg["count"] += node["count"]
        for c in node["children"]:
            visit(c)

    for r in roots:
        visit(r)
    return out


def find(roots, name):
    """The first top-level node called `name`, or None."""
    return next((r for r in roots if r["name"] == name), None)


def coverage(roots, root_name, wall_s):
    """Share of the timed wall clock that the children of `root_name` (the
    named layers under the call the benchmark timed) account for."""
    root = find(roots, root_name)
    if root is None or wall_s <= 0:
        return 0.0
    return sum(c["total_us"] for c in root["children"]) * 1e-6 / wall_s


def ns_per(value_us, count):
    return value_us * 1e3 / count if count else 0.0


def subtree(roots, name):
    """Aggregate of the top-level node `name` and everything under it."""
    root = find(roots, name)
    return by_name([root] if root else [])


def stage2_layers(roots, steps):
    """Per-layer stage-2 metrics, per timed env step (see README.md)."""
    agg = subtree(roots, "stage2")

    def get(name, key="total_us"):
        return agg.get(name, {}).get(key, 0.0)

    def per_step(us):
        return ns_per(us, steps)

    # The batched path's rollout phase, or the serial path's act.
    rollout = get("rollout") if "rollout" in agg else get("act")
    fwd_calls, bwd_calls = get("nn_forward", "count"), get("nn_backward", "count")
    return {
        "sim.step_ns": per_step(get("sim_step", "self_us")),
        "sim.obs_ns": per_step(get("obs_build", "self_us")),
        "rollout.total_ns": per_step(rollout),
        "rollout.select_ns": per_step(get("select", "self_us")),
        "rollout.skills_ns": per_step(get("skills", "self_us")),
        "rollout.accumulate_ns": per_step(get("accumulate", "self_us")),
        "opponent.predict_ns": per_step(get("opponent_predict")),
        "opponent.predict_calls": get("opponent_predict", "count") / steps if steps else 0.0,
        "opponent.update_ns": per_step(get("opponent_update")),
        "learner.update_ns": per_step(get("update")),
        "learner.update_calls": get("update", "count") / steps if steps else 0.0,
        "learner.high_ns": per_step(get("update") - get("opponent_update")),
        "learner.replay_ns": per_step(get("replay")),
        "learner.merge_ns": per_step(get("merge")),
        "nn.forward_ns": per_step(get("nn_forward")),
        "nn.backward_ns": per_step(get("nn_backward")),
        "nn.forward_calls": fwd_calls / steps if steps else 0.0,
        "nn.backward_calls": bwd_calls / steps if steps else 0.0,
        "nn.forward_ns_per_call": ns_per(get("nn_forward"), fwd_calls),
        "nn.backward_ns_per_call": ns_per(get("nn_backward"), bwd_calls),
    }


def stage1_layers(roots):
    """Per-layer stage-1 metrics, per stage-1 env step (a sim_step)."""
    agg = subtree(roots, "stage1")
    steps = agg.get("sim_step", {}).get("count", 0)
    update = agg.get("update", {})
    return {
        "skills.update_ns": ns_per(update.get("total_us", 0.0), steps),
        "skills.update_calls": update.get("count", 0) / steps if steps else 0.0,
        "skills.sim_ns": ns_per(agg.get("sim_step", {}).get("total_us", 0.0), steps),
    }
