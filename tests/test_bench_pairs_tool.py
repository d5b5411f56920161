"""The pair arithmetic of ``tools/bench_pairs.py``, on canned benchmark summary lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs_tool", TOOL_PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "item_ms_p50", "better": "lower", "bound": 0.15},
        {"name": "ok_rate", "better": "higher", "bound": 0.001},
    ],
}


def _line(p50, ok=1.0):
    return json.dumps({
        "correct": True,
        "attempted": 120,
        "failed": 0,
        "metrics": {"w.item_ms_p50": {"value": p50, "unit": "ms"}, "w.ok_rate": {"value": ok, "unit": "share"}},
    })


def _lines(values, **kw):
    return [bench_pairs.summary_line("== w (seed 1, trace 0)\nitem_ms_p50 1 ms\n" + _line(v, **kw) + "\n") for v in values]


def test_the_summary_line_is_the_last_line_of_stdout():
    assert bench_pairs.summary_line("noise\n" + _line(0.25) + "\n\n")["metrics"]["w.item_ms_p50"]["value"] == 0.25
    with pytest.raises(ValueError):
        bench_pairs.summary_line("\n")


def test_medians_iqr_change_and_pair_wins():
    parent = [0.25, 0.26, 0.27, 0.24, 0.25, 0.26, 0.28, 0.25, 0.26, 0.27]
    change = [0.16, 0.17, 0.15, 0.16, 0.25, 0.16, 0.17, 0.16, 0.15, 0.16]
    s = bench_pairs.summarize(_lines(parent), _lines(change), BENCHMARK)["w"]["item_ms_p50"]
    assert s["parent_median"] == 0.26 and s["change_median"] == 0.16
    assert s["parent_iqr"] == 0.0175  # inclusive quartiles 0.25 and 0.2675
    assert s["change_rel"] == round((0.16 - 0.26) / 0.26, 4)
    assert s["within_bound"] and s["bound"] == 0.15
    assert (s["pairs_change_better"], s["pairs_change_worse"]) == (9, 0)  # pair 5 is a tie
    assert s["parent_runs"] == parent and s["change_runs"] == change


def test_the_bound_reads_in_the_worse_direction_of_each_metric():
    slower = bench_pairs.summarize(_lines([1.0] * 4), _lines([1.2] * 4), BENCHMARK)["w"]["item_ms_p50"]
    assert slower["change_rel"] == 0.2 and not slower["within_bound"]
    lower_ok = bench_pairs.summarize(_lines([1.0] * 4), _lines([1.0] * 4, ok=0.99), BENCHMARK)["w"]["ok_rate"]
    assert lower_ok["change_rel"] == -0.01 and not lower_ok["within_bound"]
    assert lower_ok["pairs_change_worse"] == 4
    higher_ok = bench_pairs.summarize(_lines([1.0] * 4, ok=0.99), _lines([1.0] * 4), BENCHMARK)["w"]["ok_rate"]
    assert higher_ok["within_bound"] and higher_ok["pairs_change_better"] == 4


def test_the_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [0.25, 0.26, 0.27, 0.24, 0.25, 0.26, 0.28, 0.25, 0.26, 0.27]
    e2e = bench_pairs.summarize(_lines(parent), _lines([v - 0.1 for v in parent]), BENCHMARK)
    claim = bench_pairs.claim_verdict(e2e, "w/item_ms_p50", BENCHMARK)
    assert claim["met"] and claim["pairs"] == 10 and claim["median_difference"] == pytest.approx(0.1)

    eight_wins = [v - 0.1 for v in parent[:8]] + parent[8:]
    e2e = bench_pairs.summarize(_lines(parent), _lines(eight_wins), BENCHMARK)
    assert not bench_pairs.claim_verdict(e2e, "w/item_ms_p50", BENCHMARK)["met"]

    small_gap = [v - 0.005 for v in parent]  # wins every pair, but the medians differ by less than the IQR 0.0175
    e2e = bench_pairs.summarize(_lines(parent), _lines(small_gap), BENCHMARK)
    claim = bench_pairs.claim_verdict(e2e, "w/item_ms_p50", BENCHMARK)
    assert claim["pairs_change_better"] == 10 and not claim["met"]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_are_refused_before_any_run(monkeypatch, tmp_path, pairs):
    def no_run(*args):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "out.json"
    argv = [str(tmp_path), str(tmp_path), "--pairs", pairs, "--seed-base", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2 and not out.exists()
