"""The residual dump comparison of ``tools/residuals.py``."""

import importlib.util
import json
import sys
import types
from pathlib import Path

from sasakigeo import suites

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # registered, as its dataclasses need
    spec.loader.exec_module(module)
    return module


residuals = _load("residuals_tool", ROOT / "tools" / "residuals.py")
workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py")


def test_dump_covers_every_suite_report_and_each_generic_base_item():
    assert len(list(residuals.configs(suites))) == 380
    reports = residuals.generic_base_reports(workloads)
    assert len(reports) == 36 and all(label.startswith("generic-base[n=") for label in reports)
    assert all(rep["pass"] and rep["checks"] for rep in reports.values())


def test_a_generic_base_item_is_judged_as_the_benchmark_judges_it():
    item = types.SimpleNamespace(label="x", run=lambda: {"a": (1e-3, 1e-5), "b": (float("nan"), 1.0), "c": (0.0, 1.0)})
    fake = types.SimpleNamespace(build_items=lambda workload, seed: ([item], ""), judge=workloads.judge)
    report = residuals.generic_base_reports(fake)["generic-base[x]"]
    assert report["pass"] is False
    assert [check["pass"] for check in report["checks"].values()] == [False, False, True]


def _report(passed, **checks):
    return {"pass": passed, "checks": {k: {"residual": r, "tol": 1e-5, "pass": r <= 1e-5} for k, r in checks.items()}}


def test_compare_counts_flips_changes_and_growth_above_the_floor():
    old = {"a": _report(True, x=1e-8, y=1e-16, z=0.5), "b": _report(True, x=2e-7)}
    new = {"a": _report(True, x=3e-8, y=9e-15, z=0.5), "b": _report(False, x=2e-5)}
    lines = residuals.compare(old, new, check="x")
    assert "verdict flips: 2" in lines  # report b and its check x
    assert "residuals changed: 3 of 4" in lines
    # y grew 90x but stays below 1e-14, so the largest growth counted is b / x (100x)
    assert any(line.startswith("largest growth (new >= 1e-14): 100x at b / x") for line in lines)
    assert "  a: 1e-08 -> 3e-08 (relative change 2)" in lines


def test_compare_shows_the_largest_shrink_above_the_floor():
    old = {"a": _report(True, x=2e-9, y=1e-15, z=0.5), "b": _report(True, x=4e-12)}
    new = {"a": _report(True, x=2e-14, y=1e-17, z=0.5), "b": _report(True, x=1e-12)}
    lines = residuals.compare(old, new, check=None)
    # y shrank 100x but started below 1e-14, so the largest shrink counted is a / x (1e5x)
    assert "largest shrink (old >= 1e-14): 1e+05x at a / x (2e-09 -> 2e-14)" in lines
    assert "largest growth (new >= 1e-14): 0.25x at b / x (4e-12 -> 1e-12)" in lines
    identical = residuals.compare(old, old, check=None)
    assert "largest shrink (old >= 1e-14): none" in identical


def test_compare_breaks_the_changes_down_by_check():
    old = {"a": _report(True, x=1e-8, y=2e-9, z=0.5), "b": _report(True, x=2e-8, y=2e-9, z=0.5)}
    new = {"a": _report(True, x=1.5e-8, y=2e-9, z=0.5), "b": _report(True, x=1e-8, y=3e-9, z=0.5)}
    lines = residuals.compare(old, new, check=None)
    at = lines.index("residuals changed: 3 of 6")
    assert lines[at + 1 : at + 3] == [
        "  x: 2 changed, largest |new - old| 1e-08",
        "  y: 1 changed, largest |new - old| 1e-09",
    ]


def test_identical_dumps_agree():
    old = {"a": _report(True, x=1e-8, n=float("nan"))}
    lines = residuals.compare(old, old, check=None)
    assert "verdict flips: 0" in lines and "residuals changed: 0 of 2" in lines


def _main_compare(tmp_path, old, new):
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, dumped in zip(paths, (old, new)):
        path.write_text(json.dumps(dumped))
    return residuals.main(["compare", str(paths[0]), str(paths[1])])


def test_compare_exits_1_on_a_flip_and_0_on_identical_dumps(tmp_path, capsys):
    old = {"a": _report(True, x=1e-8)}
    assert _main_compare(tmp_path, old, {"a": _report(False, x=1e-4)}) == 1
    assert _main_compare(tmp_path, old, old) == 0
    assert "verdict flips: 0" in capsys.readouterr().out


def test_compare_exits_1_when_a_report_or_check_is_missing(tmp_path):
    old = {"a": _report(True, x=1e-8, y=1e-9), "b": _report(True, x=1e-8)}
    assert _main_compare(tmp_path, old, {"a": old["a"]}) == 1
    assert _main_compare(tmp_path, old, {"a": _report(True, x=1e-8), "b": old["b"]}) == 1


def test_compare_lists_a_missing_check_once_with_its_report_count(tmp_path):
    old = {k: _report(True, x=1e-8, y=1e-9) for k in ("a", "b", "c")}
    new = {"a": _report(True, x=1e-8), "b": _report(True, x=1e-8), "c": old["c"]}
    lines = residuals.compare(old, new, check=None)
    assert [line for line in lines if line.startswith("missing")] == ["missing in new: check 'y' in 2 reports"]
    assert _main_compare(tmp_path, old, new) == 1


def test_a_moved_tolerance_is_listed_and_fails_the_compare(tmp_path, capsys):
    old = {"a": _report(True, x=1e-8, y=2e-9), "b": _report(True, x=2e-8)}
    new = json.loads(json.dumps(old))
    new["a"]["checks"]["y"]["tol"] = 1e-3  # looser, and still passing: no verdict flips
    lines = residuals.compare(old, new, check=None)
    assert "verdict flips: 0" in lines
    at = lines.index("tolerances changed: 1")
    assert lines[at + 1] == "  a / y: 1e-05 -> 0.001"
    assert _main_compare(tmp_path, old, new) == 1
    assert _main_compare(tmp_path, old, old) == 0
    assert "tolerances changed: 0" in capsys.readouterr().out
