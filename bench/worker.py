"""One pass of one workload, in the fresh interpreter that run.py starts for it.

    python3 bench/worker.py --workload W --seed S --mode pass|setup|traced --out FILE

``setup`` stops when the first item is about to start; ``pass`` runs every
item once; ``traced`` does the same with spans around every public function
of the library and writes the spans next to FILE.  The worker writes one JSON
object to FILE: when set-up ended (``time.monotonic``), the wall time, each
item's latency and failure, digests of inputs, residuals and verdicts, peak
RSS, CPU time and, when traced, span totals per function.

Item and wall times come raw and adjusted to the reference machine's speed:
each item by the mean of the calibrations taken right before and right after
it (the next item's), the time between items by the median factor of the
pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import sasakigeo

    if ROOT / "src" not in Path(sasakigeo.__file__).resolve().parents:
        print(f"error: sasakigeo imported from {sasakigeo.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
        # the benchmark's own per-item work (calibration, checks) gets a span
        # of its own, so that no layer's self time includes it
        workloads.run_item = tracer.wrap("bench.run_item", workloads.run_item)
    result = workloads.run_pass(args.workload, args.seed, setup_only=(args.mode == "setup"))
    usage = resource.getrusage(resource.RUSAGE_SELF)

    ref = workloads.CAL_REF_MS
    items = result.items
    cals = [it.cal_ms for it in items]
    factors = [2.0 * ref / (before + after) for before, after in zip(cals, cals[1:] + cals[-1:])]
    factor = statistics.median(factors) if items else 1.0
    busy_s = sum(it.latency_ms for it in items) / 1000.0
    wall_s = result.wall_s if items else 0.0
    adjusted_busy_s = sum(it.latency_ms * f for it, f in zip(items, factors)) / 1000.0
    out = {
        "first_item_t": result.first_item_t,
        "factor": factor,
        "wall_s": wall_s,
        "wall_adj_s": adjusted_busy_s + (wall_s - busy_s) * factor,
        "items": [[it.latency_ms, it.latency_ms * f, it.failure] for it, f in zip(items, factors)],
        "input_digest": result.input_digest,
        "residual_digest": result.residual_digest(),
        "verdict_digest": result.verdict_digest,
        "mismatches": result.mismatches,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime - sum(it.cal_ms for it in items) / 1000.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["span_totals"] = tracer.totals()
        tracer.write(args.out.with_suffix(".spans.npz"))
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
