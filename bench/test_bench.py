"""Self-tests of the benchmark: its checks can fail, its inputs repeat, its trace is faithful.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sasakigeo import contact, sphere, suites  # noqa: E402

SEED = 42


def nan_at(fn, hit):
    """``fn`` that returns NaN where ``hit(x)`` holds."""

    def metric_fn(x):
        g = fn(x)
        return np.full_like(g, np.nan) if hit(x) else g

    return metric_fn


def failed(result):
    return [it.failure for it in result.items if it.failure]


@pytest.mark.parametrize("workload", ["oracle-gauss", "generic-base"])
def test_same_seed_gives_identical_inputs(workload):
    _, first = workloads.build_items(workload, SEED)
    _, again = workloads.build_items(workload, SEED)
    _, other = workloads.build_items(workload, SEED + 1)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["oracle-gauss", "generic-base"])
def test_clean_pass_has_no_failures(workload):
    result = workloads.run_pass(workload, SEED)
    assert len(result.items) >= 36
    assert failed(result) == []


@pytest.mark.parametrize("workload", ["oracle-gauss", "generic-base"])
def test_nan_metric_at_one_sample_fails_its_items(workload):
    items, _ = workloads.build_items(workload, SEED)
    m, x0 = items[0].chart, items[0].point.x
    m.metric_fn = nan_at(m.metric_fn, lambda x: np.array_equal(x, x0))
    result = workloads.run_pass(workload, SEED, items=items)
    bad = failed(result)
    assert len(result.items) == len(items)  # the pass carried on
    assert bad and bad[0].startswith(f"seed {SEED} item 0 ")
    assert all(res.failure for res, it in zip(result.items, items) if it.point is items[0].point)


def test_perturbed_curvature_fails_the_gauss_oracle(monkeypatch):
    closed = sphere.sb_curvature
    monkeypatch.setattr(sphere, "sb_curvature", lambda m, p, a, b, c: closed(m, p, a, b, c) + 1e-3 * a)
    result = workloads.run_pass("oracle-gauss", SEED)
    assert len(failed(result)) == len(result.items)
    assert "sb_curvature = Gauss oracle" in failed(result)[0]


def test_perturbed_nabla_phi_fails_its_definition(monkeypatch):
    closed = contact.nabla_phi
    monkeypatch.setattr(contact, "nabla_phi", lambda m, p, a, b: closed(m, p, a, b) + 1e-6 * a)
    result = workloads.run_pass("generic-base", SEED)
    assert len(failed(result)) == len(result.items)
    assert "nabla_phi" in failed(result)[0]


@pytest.fixture
def small_matrix(monkeypatch):
    """The first two configurations of the matrix (20 rows), to keep the tests short."""
    full = suites.matrix_configs
    monkeypatch.setattr(suites, "matrix_configs", lambda cfg: list(full(cfg))[:2])


def test_matrix_rows_pass_their_checks(small_matrix):
    result = workloads.run_pass("matrix", SEED)
    assert len(result.items) == 20
    assert failed(result) == []
    assert result.verdict_digest == workloads.run_pass("matrix", SEED).verdict_digest


def test_matrix_counts_a_perturbed_closed_form(small_matrix, monkeypatch):
    exact = contact.kappa_mu_for_space_form
    monkeypatch.setattr(contact, "kappa_mu_for_space_form", lambda c, eps: contact.KappaMu(exact(c, eps).kappa + 0.5, exact(c, eps).mu))
    bad = failed(workloads.run_pass("matrix", SEED))
    assert bad and all("kappa-mu" in f and "verdict = published expectation" in f for f in bad)


def test_matrix_counts_a_nan_metric_without_stopping(small_matrix, monkeypatch):
    calls = [0]
    chart = suites.space_form_chart

    def first_sample_nan(x):
        calls[0] += 1
        return calls[0] == 1

    def nan_chart(spec):
        m = chart(spec)
        m.metric_fn = nan_at(m.metric_fn, first_sample_nan)
        return m

    monkeypatch.setattr(suites, "space_form_chart", nan_chart)
    result = workloads.run_pass("matrix", SEED)
    assert len(result.items) == 20
    assert len(failed(result)) == 1 and "raised DegenerateMetric" in failed(result)[0]


def test_traced_pass_matches_untraced_and_counts_repeat():
    plain = workloads.run_pass("oracle-gauss", SEED)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert contact.sb_curvature is sphere.sb_curvature  # one wrapper under both names
            assert hasattr(sphere.sb_curvature, "__wrapped__")
            traced = workloads.run_pass("oracle-gauss", SEED)
        finally:
            tracer.uninstall()
        assert traced.residual_digest() == plain.residual_digest()
        totals = tracer.totals()
        counts.append({name: t["calls"] for name, t in totals.items()})
    assert counts[0] == counts[1]
    assert counts[0]["sphere.sb_curvature"] == len(plain.items)
    assert counts[0]["oracle.gauss_curvature_oracle"] == len(plain.items)
    assert counts[0]["sampling.sample_sb_point"] == len(workloads.ORACLE_CONFIGS) * workloads.ORACLE_POINTS
    assert not hasattr(sphere.sb_curvature, "__wrapped__")


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer.wrap("a.outer", lambda f: f())
    inner = tracer.wrap("a.inner", lambda: sum(range(100_000)))
    outer(inner)
    totals = tracer.totals()
    assert totals["a.outer"]["self_s"] + totals["a.inner"]["s"] == pytest.approx(totals["a.outer"]["s"])
    assert totals["a.outer"]["self_s"] < totals["a.inner"]["s"]


def test_generic_chart_derivatives_match_differences():
    m, _ = workloads.seeded_generic_chart(3, 1, SEED, 0)
    x, h = np.array([0.1, -0.2, 0.15]), 1e-5
    d1 = np.stack([(m.metric_fn(x + h * e) - m.metric_fn(x - h * e)) / (2 * h) for e in np.eye(3)])
    d2 = np.stack([(m.deriv1_fn(x + h * e) - m.deriv1_fn(x - h * e)) / (2 * h) for e in np.eye(3)])
    assert np.abs(d1 - m.deriv1_fn(x)).max() < 1e-8
    assert np.abs(d2 - m.deriv2_fn(x)).max() < 1e-8
    assert not m.locally_symmetric


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == list(spans.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
