"""Benchmark of sasakigeo: how long a user waits for verified geometry.

    python3 bench/run.py --workload matrix|oracle-gauss|generic-base|all
                         --seed N [--seconds S] [--trace 0|1]

Load model: a closed loop in one process with no threads; each item starts
after the previous one finished.  Every pass over a workload runs in a fresh
interpreter (bench/worker.py), as a ``verify`` user pays for it, so a
process-level cache counts only within one pass.  The inputs come from
``--seed`` alone.

``--trace 0`` runs whole passes while the next one is expected to end within
``--seconds`` (at least two passes and 100 items), then tops the set-up samples up with
workers that stop at the first item.  It reports the end-to-end metrics:
medians over passes for set-up, wall time and peak RSS, item latency
percentiles over every item of every pass, and the share of items that
passed their checks.  Times are adjusted to the reference machine's speed
(items and wall time in worker.py, set-up in ``spawn``), and the raw ones are
printed next to them.

``--trace 1`` runs one pass untraced and one traced, checks that both give
identical residuals and verdicts, and reports the per-layer metrics from the
spans of the traced pass.

Every metric is printed by name with its unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Worker
outputs, spans and verdict digests are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WORKLOADS = ("matrix", "oracle-gauss", "generic-base")
MIN_PASSES = 2
MIN_ITEMS = 100  # so that at least 10 items lie beyond the 90th percentile
SETUP_SAMPLES = 9  # passes give one each; workers that stop at the first item add the rest
DEADLINE_S = 170.0  # a run of one workload must end within 180 s
START_REF_S = 0.15  # start_time() on the reference machine (2-vCPU Intel Xeon, Python 3.11, numpy 2.4)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "share"),
)


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the load model has no threads
    return env


def run_process(cmd, what: str, deadline: float):
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{what} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{what} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def start_time(deadline: float) -> float:
    """Seconds that a fresh interpreter takes to import numpy right now."""
    t0 = time.monotonic()
    run_process([sys.executable, "-c", "import numpy"], "start-up reference", deadline)
    return time.monotonic() - t0


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion; its result plus its set-up time, raw and adjusted.

    Set-up is mostly interpreter start and imports, which ``calibrate`` does
    not track; it is scaled by a start-up reference timed right before.
    """
    out = OUT / f"worker-{workload}-{seed}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    reference = start_time(deadline)
    t0 = time.monotonic()
    run_process(cmd, f"{mode} worker for {workload}", deadline)
    result = json.loads(out.read_text())
    result["setup_s"] = result["first_item_t"] - t0
    result["setup_adj_s"] = result["setup_s"] * START_REF_S / reference
    return result


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sasakigeo").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def same_verdicts_as_before(seed: int, digest: str) -> bool:
    """Record the matrix verdict digest for (source, seed); False if an earlier run differs."""
    path = OUT / "verdict-digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(f"{src_digest()}:{seed}", digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return previous == digest


def failures(passes) -> list:
    return [f for p in passes for _, _, f in p["items"] if f]


def consistency(workload: str, seed: int, passes) -> list:
    """Disagreements between passes over the same inputs, or with earlier runs."""
    problems = [
        f"passes disagree on {key}"
        for key in ("input_digest", "residual_digest", "verdict_digest")
        if len({p[key] for p in passes}) > 1
    ]
    if workload == "matrix" and not same_verdicts_as_before(seed, passes[0]["verdict_digest"]):
        problems.append(f"verdict digest differs from an earlier run with seed {seed}")
    return problems


def diagnostics(workload: str, result: dict) -> list:
    if workload != "matrix":
        return [f"input digest {result['input_digest'][:16]}"]
    return [f"verdict digest {result['verdict_digest'][:16]}, {result['mismatches']} of "
            f"{len(result['items'])} rows disagree with the CLI's expectation"]


def environment(result: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"python {result['python']}, numpy {result['numpy']}, nproc {os.cpu_count()}, cpu {cpu}"


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    start = time.monotonic()
    passes = [spawn(workload, seed, "pass", deadline)]
    while (len(passes) < MIN_PASSES
           or sum(len(p["items"]) for p in passes) < MIN_ITEMS
           or time.monotonic() - start + passes[-1]["setup_s"] + passes[-1]["wall_s"] < seconds):
        passes.append(spawn(workload, seed, "pass", deadline))
    setups = passes + [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES - len(passes))]
    raw = [lat for p in passes for lat, _, _ in p["items"]]
    adjusted = [adj for p in passes for _, adj, _ in p["items"]]
    failed = failures(passes)

    def summary(setup_key, wall_key, latencies):
        return {
            "setup_s": statistics.median(p[setup_key] for p in setups),
            "wall_s": statistics.median(p[wall_key] for p in passes),
            "item_ms_p50": statistics.median(latencies),
            "item_ms_p90": statistics.quantiles(latencies, n=10)[-1],
        }

    metrics = summary("setup_adj_s", "wall_adj_s", adjusted)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    metrics["ok_rate"] = 1.0 - len(failed) / len(adjusted)
    raw_metrics = summary("setup_s", "wall_s", raw)
    return {
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
        "attempted": len(adjusted),
        "failed": failed,
        "problems": consistency(workload, seed, passes),
        "notes": [
            f"{len(passes)} passes of {len(passes[0]['items'])} items, {len(setups)} set-up samples",
            "raw (unadjusted) " + ", ".join(f"{k} {v:.6g}" for k, v in raw_metrics.items()),
            "speed factors " + ", ".join(f"{p['factor']:.3f}" for p in passes),
        ] + diagnostics(workload, passes[0]),
        "env": environment(passes[0]),
    }


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    plain = spawn(workload, seed, "pass", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    values = spans.layer_metrics(traced["span_totals"], traced["mismatches"], traced["factor"])
    values["trace.overhead_s"] = traced["wall_adj_s"] - plain["wall_adj_s"]
    values["process.cpu_s"] = plain["cpu_s"] * plain["factor"]
    passes = [plain, traced]
    return {
        "metrics": {name: (values[name], unit) for name, unit, _ in spans.PER_LAYER},
        "attempted": sum(len(p["items"]) for p in passes),
        "failed": failures(passes),
        "problems": consistency(workload, seed, passes),
        "notes": [f"one untraced and one traced pass of {len(plain['items'])} items each"]
        + diagnostics(workload, traced),
        "env": environment(plain),
    }


def report(workload: str, seed: int, trace: int, res: dict) -> None:
    print(f"== {workload} (seed {seed}, trace {trace})")
    print(f"env: {res['env']}")
    for note in res["notes"]:
        print(f"note: {note}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"error_rate {len(res['failed'])}/{res['attempted']}")
    for failure in res["failed"][:20]:
        print(f"FAILED {failure}")
    for problem in res["problems"]:
        print(f"INCORRECT {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sasakigeo benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sasakigeo" / "__init__.py").is_file():
        print(f"error: no sasakigeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = measure_traced(name, args.seed, deadline)
            else:
                results[name] = measure(name, args.seed, args.seconds, deadline)
            report(name, args.seed, args.trace, results[name])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    line = {
        "correct": all(not r["failed"] and not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(len(r["failed"]) for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, r in results.items()
            for name, (value, unit) in r["metrics"].items()
        },
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps({**line, "runs": results}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
