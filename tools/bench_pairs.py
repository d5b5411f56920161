"""Run the benchmark in alternating pairs on two trees and summarize every end-to-end metric.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N --seed-base S --out BENCH_N.json
                                [--claim WORKLOAD/METRIC]

N must be at least 2, since each side's interquartile range needs two
runs; a smaller N is refused before any run.  Pair k (k = 1 .. N) runs ``bench/run.py --workload all --seed S+k-1
--seconds T`` once from each tree, each with its own ``src``; odd pairs run
the parent first and even pairs the change, so a drift of the host's speed
does not favour one side.  T is ``run_seconds`` of CHANGE_DIR's
``BENCHMARK.json``, the same on both sides.  Each run's last stdout line (the benchmark's JSON
summary) is kept.

The output holds, per workload and end-to-end metric: both sides' runs,
their medians and interquartile ranges (inclusive quartiles), change_rel =
(change median - parent median) / parent median, the bound from
``BENCHMARK.json`` and whether the change stays within it in the metric's
worse direction, and how many pairs the change won and lost.  With
``--claim`` it also gives the claim's verdict: the change must win at least
nine tenths of the pairs, and its median must beat the parent's by more
than the parent's interquartile range.  The tool writes only OUT, and the
benchmark writes only its own output directory in each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # the claim needs the change to win this share of the pairs


def summary_line(stdout: str) -> dict:
    """The benchmark's JSON summary: the last non-empty line of its stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def run_once(tree: Path, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", "all", "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return summary_line(proc.stdout)


def iqr(values: list) -> float:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def metric_summary(parent: list, change: list, spec: dict) -> dict:
    """One metric's runs on both sides, paired by index, against its BENCHMARK.json entry."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # sign * (change - parent) > 0 means worse
    pm, cm = statistics.median(parent), statistics.median(change)
    rel = (cm - pm) / pm if pm else 0.0
    return {
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "change_rel": round(rel, 4),
        "bound": spec["bound"],
        "within_bound": sign * rel <= spec["bound"],
        "parent_iqr": round(iqr(parent), 6),
        "change_iqr": round(iqr(change), 6),
        "pairs_change_better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs_change_worse": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
    }


def summarize(parent_lines: list, change_lines: list, benchmark: dict) -> dict:
    """{workload: {metric: metric_summary}} from the two sides' summary lines, pair by pair."""
    out: dict = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        out[workload] = {}
        for spec in benchmark["end_to_end"]:
            key = f"{workload}.{spec['name']}"
            parent = [line["metrics"][key]["value"] for line in parent_lines]
            change = [line["metrics"][key]["value"] for line in change_lines]
            out[workload][spec["name"]] = metric_summary(parent, change, spec)
    return out


def claim_verdict(end_to_end: dict, claim: str, benchmark: dict) -> dict:
    """Whether WORKLOAD/METRIC improved: wins in WIN_SHARE of the pairs and a median gap beyond the parent's IQR."""
    workload, metric = claim.split("/")
    s = end_to_end[workload][metric]
    better = next(spec["better"] for spec in benchmark["end_to_end"] if spec["name"] == metric)
    gap = s["parent_median"] - s["change_median"] if better == "lower" else s["change_median"] - s["parent_median"]
    pairs = len(s["parent_runs"])
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": s["parent_median"],
        "change_median": s["change_median"],
        "change_rel": s["change_rel"],
        "parent_iqr": s["parent_iqr"],
        "median_difference": round(gap, 6),
        "pairs_change_better": s["pairs_change_better"],
        "pairs": pairs,
        "met": s["pairs_change_better"] >= WIN_SHARE * pairs and gap > s["parent_iqr"],
    }


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD/METRIC whose gain to judge")
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles, and so the IQR of each side, need two runs
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    parent, change = args.parent.resolve(), args.change.resolve()
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    pairs, runs = [], {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        seed = args.seed_base + k - 1
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(parent if side == "parent" else change, seed, seconds))
            print(f"pair {k} seed {seed} {side}: correct {runs[side][-1]['correct']}", file=sys.stderr)
        pairs.append({"pair": k, "seed": seed, "first": order[0]})
    end_to_end = summarize(runs["parent"], runs["change"], benchmark)
    out = {
        "environment": environment(),
        "command": f"python3 bench/run.py --workload all --seed SEED --seconds {seconds:g}",
        "pairs": pairs,
        "runs_correct": {side: [line["correct"] for line in lines] for side, lines in runs.items()},
        "runs_failed_items": {side: [line["failed"] for line in lines] for side, lines in runs.items()},
        "end_to_end": end_to_end,
    }
    if args.claim:
        out["claim"] = claim_verdict(end_to_end, args.claim, benchmark)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, metrics in end_to_end.items():
        for name, s in metrics.items():
            print(f"{workload:14s} {name:12s} {s['parent_median']:12.6g} -> {s['change_median']:12.6g} "
                  f"({s['change_rel']:+.2%}, bound {s['bound']:.1%}, {'ok' if s['within_bound'] else 'WORSE'}; "
                  f"{s['pairs_change_better']}/{len(s['parent_runs'])} pairs better)")
    if args.claim:
        c = out["claim"]
        print(f"claim {args.claim}: {'met' if c['met'] else 'NOT met'} ({c['pairs_change_better']}/{c['pairs']} pairs, "
              f"median gap {c['median_difference']:.6g} against parent IQR {c['parent_iqr']:.6g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
