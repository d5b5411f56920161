"""Verification suites, reports and the command-line interface."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sasakigeo import contact, sphere, suites
from sasakigeo.errors import DegenerateMetric, InvalidConfig
from sasakigeo.cli import main
from sasakigeo.report import CheckItem, CheckReport, emit_report, report_to_dict, worst_of
from sasakigeo.suites import SUITES, SuiteConfig, expected_pass, matrix_configs, run_suite

from conftest import nan_on_call

FAST = dict(num_points=2, num_samples=8)

# every suite's check names in report order (the order of their first row)
CHECK_NAMES = {
    "axioms": [
        "eta(xi) = 1",
        "g_cm(xi, xi) = eps",
        "phi(xi) = 0",
        "phi^2 = -Id + eta@xi",
        "g_cm(phi.,phi.) = g_cm - eps eta@eta",
        "d eta = g_cm(., phi .)",
    ],
    "connection": [
        "tm_nabla metric compatibility (FD)",
        "sb_nabla metric compatibility (FD)",
        "sb_nabla = projected ambient derivative",
        "nabla xi = -eps phi - phi h",
        "geodesic flow: nabla_xi xi = 0",
        "nabla phi closed form = definition",
    ],
    "curvature": [
        "R antisymmetric in last pair",
        "R antisymmetric in first pair",
        "R pair symmetry",
        "R first Bianchi identity",
        "sectional curvature = c",
        "R(X,u)u = eps c X for X perp u",
        "R-bar antisymmetry (a,b)",
        "R-bar antisymmetry (c,d)",
        "R-bar pair symmetry",
        "R-bar first Bianchi identity",
        "curvature operator invariant under constant metric scaling",
    ],
    "kappa-mu": [
        "(kappa,mu)-nullity residual",
        "sensitivity: residual(kappa + 0.1) >= 1e-2",
        "psi_u quadratic (vertical branch)",
        "psi_u quadratic (horizontal branch)",
        "common root a = eps c (vertical)",
        "common root a = eps c (horizontal)",
        "h eigenvalues = {2 - eps(1+c), eps(c-1), 0}",
        "h(xi) = 0",
        "h self-adjoint for g_cm",
    ],
    "k-contact": ["L_xi g_cm = 0 (Killing)", "K(xi-plane) = eps"],
    "sasakian": ["N_phi + 2 d eta @ xi = 0", "(nabla phi) = g_cm @ xi - eps eta @ id"],
    "phi-sectional": ["phi-sectional curvature constant (spread)", "phi-sectional value = eps c^2"],
    "oracle-crosscheck": [
        "christoffel_at = Koszul FD oracle",
        "riemann_at = FD curvature oracle",
        "FD step halving stays within 4x tolerance",
        "sb_curvature = Gauss-equation oracle",
        "second fundamental form symmetric",
        "sb_nabla = projection of ambient FD derivative",
        "tm_nabla = FD Christoffels of Tg on lift fields",
        "hypersurface pullback = induced metric",
        "pullback chart rank 2n-1",
        "pullback constraint g(u,u) = eps",
        "fd_exterior_derivative of exact form = 0",
        "2 d eta'(A,B) = eps gbar(A, phi'B)",
        "nabla phi = FD ambient derivative",
    ],
    "index": [
        "base signature (n - nu, nu)",
        "index of Sasaki metric Tg = 2 nu",
        "frame Gram diagonal = +-1",
        "frame Gram off-diagonal = 0",
        "index of induced metric = 2 nu - (eps = -1)",
        "pullback metric index matches",
    ],
    "brackets": [
        "[X^h, Y^h] = [X,Y]^h - v{R(X,Y)u}",
        "[X^h, Y^v] = (nabla_X Y)^v",
        "[X^v, Y^v] = 0",
        "[X^h, Y^t] = (nabla_X Y)^t",
        "[X^t, Y^t] = eps g(X,u)Y^t - eps g(Y,u)X^t",
        "[X^h, Y^h] on T_eps M",
    ],
}


def _strip_runtime(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "runtime_ms" not in line)


class TestSuiteConfig:
    def test_defaults_valid(self):
        SuiteConfig(suite="axioms").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(suite="nope"),
            dict(suite="axioms", n=1),
            dict(suite="axioms", nu=3),
            dict(suite="axioms", eps=0),
            dict(suite="axioms", eps=-1, nu=0),
            dict(suite="axioms", num_points=0),
            dict(suite="axioms", c=float("nan")),
            dict(suite="axioms", seed=-1),
            dict(suite="axioms", tol=float("nan")),
            dict(suite="axioms", tol=float("inf")),
            dict(suite="axioms", tol=-1.0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(n=2, nu=0)
        base.update(kwargs)
        with pytest.raises(InvalidConfig):
            SuiteConfig(**base).validate()


class TestRunSuite:
    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
    def test_default_config_passes(self, suite):
        rep = run_suite(SuiteConfig(suite=suite, **FAST))
        assert rep.passed, [(c.name, c.max_residual) for c in rep.checks if not c.passed]
        assert rep.suite == suite
        assert rep.runtime_ms > 0.0

    def test_kappa_mu_echoes_values(self):
        rep = run_suite(SuiteConfig(suite="kappa-mu", c=1.0, eps=1, **FAST))
        assert rep.params["kappa"] == 1.0 and rep.params["mu"] == -2.0

    def test_k_contact_fails_away_from_eps(self):
        rep = run_suite(SuiteConfig(suite="k-contact", c=2.0, eps=1, **FAST))
        assert not rep.passed
        plane = [c for c in rep.checks if c.name.startswith("K(xi-plane)")][0]
        assert plane.max_residual == pytest.approx(5.0, abs=0.01)

    def test_sasakian_verdicts(self):
        assert run_suite(SuiteConfig(suite="sasakian", c=1.0, eps=1, **FAST)).passed
        assert not run_suite(SuiteConfig(suite="sasakian", c=0.0, eps=1, **FAST)).passed

    def test_phi_sectional_verdicts(self):
        magic = 2.0 + np.sqrt(5.0)
        assert run_suite(SuiteConfig(suite="phi-sectional", n=3, c=magic, **FAST)).passed
        assert not run_suite(SuiteConfig(suite="phi-sectional", n=3, c=1.0, **FAST)).passed

    def test_determinism_same_seed(self):
        r1 = run_suite(SuiteConfig(suite="curvature", seed=7, **FAST))
        r2 = run_suite(SuiteConfig(suite="curvature", seed=7, **FAST))
        assert [(c.name, c.max_residual) for c in r1.checks] == [
            (c.name, c.max_residual) for c in r2.checks
        ]

    def test_different_seeds_differ(self):
        r1 = run_suite(SuiteConfig(suite="brackets", seed=1, **FAST))
        r2 = run_suite(SuiteConfig(suite="brackets", seed=2, **FAST))
        v1 = [c.max_residual for c in r1.checks]
        v2 = [c.max_residual for c in r2.checks]
        assert v1 != v2

    def test_check_table_covers_every_suite(self):
        assert list(CHECK_NAMES) == [s for s in SUITES if s != "all"]

    @pytest.mark.parametrize("suite", list(CHECK_NAMES))
    @pytest.mark.parametrize("nu, eps", [(0, 1), (1, -1)])
    def test_check_names_in_report_order(self, suite, nu, eps):
        rep = run_suite(SuiteConfig(suite=suite, n=2, nu=nu, eps=eps, **FAST))
        assert [c.name for c in rep.checks] == CHECK_NAMES[suite]

    @pytest.mark.parametrize("suite", list(CHECK_NAMES))
    def test_tolerance_override(self, suite):
        rep = run_suite(SuiteConfig(suite=suite, tol=0.5, **FAST))
        assert rep.checks and all(c.tol == 0.5 for c in rep.checks)


class TestNonFiniteResiduals:
    def test_worst_of_keeps_nan(self):
        nan = float("nan")
        assert max(0.0, nan) == 0.0  # what the builtin does
        assert math.isnan(worst_of(0.0, nan)) and math.isnan(worst_of(nan, 0.0))
        assert math.isnan(worst_of(1.0, nan, 2.0))
        assert worst_of(0.0, 2.5, -1.0) == 2.5 and worst_of(1.0, math.inf) == math.inf

    def test_one_nan_curvature_fails_the_curvature_suite(self, monkeypatch):
        cfg = SuiteConfig(suite="curvature", **FAST)
        assert run_suite(cfg).passed
        monkeypatch.setattr(sphere, "sb_curvature", nan_on_call(sphere.sb_curvature, 2))
        rep = run_suite(cfg)
        assert not rep.passed
        assert any(math.isnan(c.max_residual) for c in rep.checks)

    def test_a_nan_perturbed_residual_fails_the_sensitivity_check(self, monkeypatch):
        cfg = SuiteConfig(suite="kappa-mu", **FAST)
        exact = contact.kappa_mu_for_space_form(cfg.c, cfg.eps)
        real = contact.kappa_mu_residual

        def nan_when_perturbed(m, p, km, rng, **kwargs):
            rep = real(m, p, km, rng, **kwargs)
            if km == exact:
                return rep
            return CheckReport.build(rep.suite, rep.params, [CheckItem(rep.checks[0].name, float("nan"), 1e-8)])

        monkeypatch.setattr(contact, "kappa_mu_residual", nan_when_perturbed)
        rep = run_suite(cfg)
        failing = [c.name for c in rep.checks if not c.passed]
        assert failing == ["sensitivity: residual(kappa + 0.1) >= 1e-2"]


class TestAllMatrix:
    def test_matrix_shape(self):
        cfgs = list(matrix_configs(SuiteConfig(suite="all")))
        assert len(cfgs) == 36  # 6 (n, nu, eps) combos x 6 curvatures
        assert all(c.eps == 1 or c.nu >= 1 for c in cfgs)

    def test_expected_pass_table(self):
        cfg = SuiteConfig(suite="k-contact", c=1.0, eps=1)
        assert expected_pass("k-contact", cfg)
        assert not expected_pass("k-contact", SuiteConfig(suite="k-contact", c=2.0, eps=1))
        assert expected_pass("sasakian", SuiteConfig(suite="sasakian", c=1.0, eps=1))
        magic = -3.0 + 2.0 * np.sqrt(2.0)
        # K-contact iff c = eps, and Sasakian implies K-contact: c = -1 at eps = -1
        assert not expected_pass("sasakian", SuiteConfig(suite="sasakian", c=magic, eps=-1, nu=1))
        assert expected_pass("sasakian", SuiteConfig(suite="sasakian", c=-1.0, eps=-1, nu=1))
        assert expected_pass("axioms", SuiteConfig(suite="axioms", c=0.5, eps=-1, nu=1))


    def test_matrix_verdicts_at_seed_42_are_pinned(self, capsys):
        """``verify all --seed 42`` keeps its 14 mismatching rows and its verdict digest.

        The only reason to update this pin is settling ROADMAP item 1 (the
        eps = -1 contact structure), which decides the axioms and sasakian
        rows at eps = -1.  A change to the closed forms, the oracle or the
        sampling that moves any verdict is a fault.
        """
        assert main(["all", "--seed", "42"]) == 1
        rows = json.loads(capsys.readouterr().out)["checks"]
        assert len(rows) == 360
        verdicts = repr([(r["name"], r["pass"]) for r in rows])
        assert [r["name"] for r in rows if not r["pass"]] == [
            "axioms[n=2,nu=1,eps=-1,c=0] (expect pass)",
            "axioms[n=2,nu=1,eps=-1,c=1] (expect pass)",
            "axioms[n=2,nu=1,eps=-1,c=-1] (expect pass)",
            "sasakian[n=2,nu=1,eps=-1,c=-1] (expect pass)",
            "axioms[n=2,nu=1,eps=-1,c=2] (expect pass)",
            "axioms[n=2,nu=1,eps=-1,c=-0.171573] (expect pass)",
            "axioms[n=2,nu=1,eps=-1,c=4.23607] (expect pass)",
            "axioms[n=3,nu=1,eps=-1,c=0] (expect pass)",
            "axioms[n=3,nu=1,eps=-1,c=1] (expect pass)",
            "axioms[n=3,nu=1,eps=-1,c=-1] (expect pass)",
            "sasakian[n=3,nu=1,eps=-1,c=-1] (expect pass)",
            "axioms[n=3,nu=1,eps=-1,c=2] (expect pass)",
            "axioms[n=3,nu=1,eps=-1,c=-0.171573] (expect pass)",
            "axioms[n=3,nu=1,eps=-1,c=4.23607] (expect pass)",
        ]
        assert hashlib.sha256(verdicts.encode()).hexdigest()[:16] == "42bf3090816dacaa"


@pytest.fixture
def two_charts(monkeypatch):
    """Three matrix configurations (30 rows) on two charts: n = 2, nu = 1, c = 0 at both eps, c = 1 at eps = +1."""
    full = suites.matrix_configs
    monkeypatch.setattr(
        suites,
        "matrix_configs",
        lambda cfg: [c for c in full(cfg) if (c.n, c.nu) == (2, 1) and (c.c == 0.0 or (c.c == 1.0 and c.eps == 1))],
    )


def test_matrix_rows_equal_their_suites_run_alone(monkeypatch):
    """Inside the matrix one chart, and the oracle's base jets on it, serve every suite and both eps; alone each suite gets a fresh chart."""
    full = suites.matrix_configs
    monkeypatch.setattr(
        suites, "matrix_configs", lambda cfg: [c for c in full(cfg) if (c.n, c.nu, c.c) == (2, 1, 1.0)]
    )
    inner = suites.run_suite
    rows = []

    def kept(cfg):
        report = inner(cfg)
        if cfg.suite != "all":
            rows.append((cfg, [(c.name, repr(c.max_residual), repr(c.tol)) for c in report.checks]))
        return report

    monkeypatch.setattr(suites, "run_suite", kept)
    inner(SuiteConfig(suite="all"))
    assert sorted({cfg.eps for cfg, _ in rows}) == [-1, 1] and len(rows) == 20
    for cfg, checks in rows:
        assert [(c.name, repr(c.max_residual), repr(c.tol)) for c in inner(cfg).checks] == checks, cfg.suite


@pytest.fixture
def validations(monkeypatch):
    """(n, nu, c) of every space-form validation that ``suites`` asks for."""
    seen = []
    validate = suites.validate_space_form

    def counted(m, spec, rng, **kwargs):
        seen.append((spec.dim, spec.index, spec.curvature))
        return validate(m, spec, rng, **kwargs)

    monkeypatch.setattr(suites, "validate_space_form", counted)
    return seen


class TestMatrixCharts:
    def test_each_chart_validated_once_per_run(self, two_charts, validations):
        report = run_suite(SuiteConfig(suite="all"))
        assert len(report.checks) == 30
        assert validations == [(2, 1, 0.0), (2, 1, 1.0)]
        run_suite(SuiteConfig(suite="all"))
        assert validations == [(2, 1, 0.0), (2, 1, 1.0)] * 2

    def test_single_suites_validate_every_time(self, validations):
        for _ in range(2):
            run_suite(SuiteConfig(suite="index", **FAST))
        assert validations == [(2, 0, 1.0)] * 2

    def test_failed_validation_is_not_kept(self, two_charts, validations, monkeypatch):
        counted = suites.validate_space_form
        failures = []

        def fail_first(m, spec, rng, **kwargs):
            if not failures:
                failures.append((spec.dim, spec.index, spec.curvature))
                raise DegenerateMetric("injected")
            return counted(m, spec, rng, **kwargs)

        monkeypatch.setattr(suites, "validate_space_form", fail_first)
        inner = suites.run_suite
        raised = []

        def row(cfg):
            # carry on past a raising row, as the benchmark's matrix workload does
            try:
                return inner(cfg)
            except DegenerateMetric:
                raised.append(cfg.suite)
                return CheckReport.build(cfg.suite, cfg.params(), [CheckItem("raised", 1.0, 0.0)])

        monkeypatch.setattr(suites, "run_suite", row)
        suites.run_suite(SuiteConfig(suite="all"))
        assert raised == ["axioms"]
        # the first chart raised and was validated again by its next row
        assert failures == [(2, 1, 0.0)]
        assert validations == [(2, 1, 0.0), (2, 1, 1.0)]

    def test_a_raising_matrix_keeps_no_chart(self, two_charts, validations, monkeypatch):
        counted = suites.validate_space_form

        def fail_at_c1(m, spec, rng, **kwargs):
            if spec.curvature == 1.0:
                raise DegenerateMetric("injected")
            return counted(m, spec, rng, **kwargs)

        monkeypatch.setattr(suites, "validate_space_form", fail_at_c1)
        with pytest.raises(DegenerateMetric):
            run_suite(SuiteConfig(suite="all"))
        run_suite(SuiteConfig(suite="index", nu=1, c=0.0, **FAST))
        assert validations == [(2, 1, 0.0)] * 2


class TestEmitReport:
    def _report(self):
        return CheckReport.build(
            "demo", {"n": 2, "nu": 0, "c": 1.0, "eps": 1, "seed": 42, "tol": None},
            [CheckItem("alpha", 1e-12, 1e-9), CheckItem("beta", 2.0, 1e-9)], 12.5,
        )

    def test_json_round_trip(self):
        r = self._report()
        data = json.loads(emit_report(r, "json"))
        assert data == report_to_dict(r)
        assert data["pass"] is False
        assert [c["name"] for c in data["checks"]] == ["alpha", "beta"]

    def test_json_key_order_stable(self):
        text = emit_report(self._report(), "json")
        assert text.index('"suite"') < text.index('"params"') < text.index('"checks"')
        assert text.index('"checks"') < text.index('"pass"') < text.index('"runtime_ms"')

    def test_text_one_line_per_check(self):
        lines = emit_report(self._report(), "text").splitlines()
        check_lines = [ln for ln in lines if ln.startswith("  [")]
        assert len(check_lines) == 2
        assert "[pass] alpha" in check_lines[0] and "[FAIL] beta" in check_lines[1]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self._report(), "yaml")


class TestCli:
    def test_pass_exit_code(self, capsys):
        code = main(["index", "--points", "2", "--samples", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_fail_exit_code(self, capsys):
        code = main(["k-contact", "--c", "2", "--points", "2", "--samples", "6"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1 and data["pass"] is False

    @pytest.mark.parametrize(
        "argv", [["axioms", "--eps", "-1", "--nu", "0"], ["index", "--tol", "nan"], ["index", "--tol=-1"]]
    )
    def test_config_error_exit_code(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_fd_step_option_is_gone(self):
        # stencil.py owns every finite-difference step
        with pytest.raises(SystemExit) as err:
            main(["index", "--fd-step", "1e-4"])
        assert err.value.code == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_text_format(self, capsys):
        code = main(["brackets", "--points", "2", "--samples", "6", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("suite: brackets")

    def test_env_seed_honored_and_overridden(self, capsys, monkeypatch):
        monkeypatch.setenv("SASAKIGEO_SEED", "7")
        main(["index", "--points", "2", "--samples", "6"])
        assert json.loads(capsys.readouterr().out)["params"]["seed"] == 7
        main(["index", "--points", "2", "--samples", "6", "--seed", "11"])
        assert json.loads(capsys.readouterr().out)["params"]["seed"] == 11

    def test_subprocess_determinism(self):
        cmd = [sys.executable, "-m", "sasakigeo", "curvature", "--seed", "5",
               "--points", "2", "--samples", "6"]
        out1 = subprocess.run(cmd, capture_output=True, text=True, check=False)
        out2 = subprocess.run(cmd, capture_output=True, text=True, check=False)
        assert out1.returncode == 0
        assert _strip_runtime(out1.stdout) == _strip_runtime(out2.stdout)
        assert "running suite" in out1.stderr  # diagnostics on stderr
