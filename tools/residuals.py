"""Dump every per-check residual of every suite, or compare two dumps.

    python tools/residuals.py dump OUT.json [--src DIR]
    python tools/residuals.py compare OLD.json NEW.json [--check NAME]

``dump`` imports ``sasakigeo`` from DIR (default: this tree's ``src``) and
runs every suite at the 36 ``matrix_configs`` of ``verify all --seed 42``
(its reduced point and sample counts) and at the CLI defaults for eps = +1
and eps = -1 (nu = 1), 380 reports.  Those run on space forms only, so it
then runs each of the 36 items of the benchmark's ``generic-base`` workload
at seed 42 (``bench/workloads.py`` beside DIR, imported and not changed),
one report per item, 416 reports in all.  Each report is recorded with its
verdict and the residual, tolerance and verdict of each check.

``compare`` prints the verdict flips, every check whose tolerance differs
between OLD and NEW (report, check, old and new tolerance), how many
residuals changed (and, per check, how many of its residuals changed and
the largest |new - old|), and the largest growth new/old among new
residuals of at least 1e-14 beside the largest shrink old/new among old
residuals of at least 1e-14, so a tightened certificate shows; with
``--check`` it also lists that check's residuals report by report.  A
report NEW lacks is listed on its own line, and a check NEW lacks on one
line with the number of reports that lack it.  It exits 1 when a verdict
flips, a tolerance differs, or NEW lacks a report or check of OLD, and 0
otherwise: a moved tolerance shows even where it flips no verdict.  Two
trees agree "within FD noise" when nothing flips, no tolerance moves and
no growth is large.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

FLOOR = 1e-14  # residuals below this are rounding, and their growth is not counted
GENERIC_SEED = 42  # the seed of the generic-base items, as ``verify all --seed 42``


def configs(suites):
    """(label, SuiteConfig) of every report, in a fixed order."""
    default = suites.SuiteConfig("all")
    matrix_base = replace(default, num_points=2, num_samples=6)  # as ``verify all`` reduces them
    cfgs = list(suites.matrix_configs(matrix_base)) + [default, replace(default, nu=1, eps=-1)]
    for cfg in cfgs:
        for suite in suites.SUITES[:-1]:  # every suite but the ``all`` meta-suite
            one = replace(cfg, suite=suite)
            label = f"{suite}[n={one.n},nu={one.nu},eps={one.eps:+d},c={one.c:.6g},points={one.num_points}]"
            yield label, one


def generic_base_reports(workloads) -> dict:
    """One report per item of the ``generic-base`` workload at ``GENERIC_SEED``, judged as the benchmark judges it."""
    out = {}
    items, _ = workloads.build_items("generic-base", GENERIC_SEED)
    for item in items:
        checks = {
            name: {"residual": res, "tol": tol, "pass": not workloads.judge({name: (res, tol)})}
            for name, (res, tol) in item.run().items()
        }
        out[f"generic-base[{item.label}]"] = {"pass": all(c["pass"] for c in checks.values()), "checks": checks}
    return out


def dump(src: Path) -> dict:
    sys.path[:0] = [str(src), str(src.parent / "bench")]
    suites = importlib.import_module("sasakigeo.suites")
    out = {}
    for label, cfg in configs(suites):
        rep = suites.run_suite(cfg)
        out[label] = {
            "pass": rep.passed,
            "checks": {c.name: {"residual": c.max_residual, "tol": c.tol, "pass": c.passed} for c in rep.checks},
        }
    out.update(generic_base_reports(importlib.import_module("workloads")))
    return out


def compare(old: dict, new: dict, check: str | None) -> list:
    lines = []
    flips, tols, pairs = [], [], []
    missing: dict = {}  # check name -> how many reports of NEW lack it
    for k in old:
        if k not in new:
            lines.append(f"missing in new: {k}")
            continue
        if old[k]["pass"] != new[k]["pass"]:
            flips.append(f"report {k}: {old[k]['pass']} -> {new[k]['pass']}")
        for name, a in old[k]["checks"].items():
            b = new[k]["checks"].get(name)
            if b is None:
                missing[name] = missing.get(name, 0) + 1
                continue
            if a["pass"] != b["pass"]:
                flips.append(f"check {k} / {name}: {a['pass']} -> {b['pass']}")
            if a["tol"] != b["tol"]:
                tols.append(f"{k} / {name}: {a['tol']:.3g} -> {b['tol']:.3g}")
            pairs.append((k, name, a["residual"], b["residual"]))
    lines += [f"missing in new: check {name!r} in {count} reports" for name, count in missing.items()]
    lines += [f"missing in old: {k}" for k in new if k not in old]
    changed = [p for p in pairs if not (p[2] == p[3] or (p[2] != p[2] and p[3] != p[3]))]
    growth = [(b / a if a > 0 else float("inf"), k, name, a, b) for k, name, a, b in changed if b >= FLOOR]
    shrink = [(a / b if b > 0 else float("inf"), k, name, a, b) for k, name, a, b in changed if a >= FLOOR and b < a]
    lines.append(f"reports: {len(old)} old, {len(new)} new; residuals compared: {len(pairs)}")
    lines.append(f"verdict flips: {len(flips)}")
    lines += [f"  {f}" for f in flips]
    lines.append(f"tolerances changed: {len(tols)}")
    lines += [f"  {t}" for t in tols]
    lines.append(f"residuals changed: {len(changed)} of {len(pairs)}")
    per_check: dict = {}
    for _, name, a, b in changed:
        count, largest = per_check.get(name, (0, 0.0))
        per_check[name] = (count + 1, max(largest, abs(b - a)))
    for name, (count, largest) in per_check.items():
        lines.append(f"  {name}: {count} changed, largest |new - old| {largest:.3g}")
    for label, ratios in (("largest growth (new", growth), ("largest shrink (old", shrink)):
        if ratios:
            ratio, k, name, a, b = max(ratios)
            lines.append(f"{label} >= {FLOOR:g}): {ratio:.3g}x at {k} / {name} ({a:.3g} -> {b:.3g})")
        else:
            lines.append(f"{label} >= {FLOOR:g}): none")
    if check is not None:
        lines.append(f"{check}:")
        for k, name, a, b in pairs:
            if name == check:
                rel = f" (relative change {abs(b - a) / a:.2g})" if a > 0 else ""
                lines.append(f"  {k}: {a:.3g} -> {b:.3g}{rel}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="run every suite and write the residuals as JSON")
    d.add_argument("out", type=Path)
    d.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    c.add_argument("--check", help="also list this check's residuals report by report")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        args.out.write_text(json.dumps(dump(args.src), indent=1))
        return 0
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    lines = compare(old, new, args.check)
    print("\n".join(lines))
    missing = any(line.startswith("missing in new") for line in lines)
    ok = {"verdict flips: 0", "tolerances changed: 0"} <= set(lines) and not missing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
