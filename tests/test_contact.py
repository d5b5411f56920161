"""Contact structure: axioms, h, nabla xi/phi, (kappa, mu), K-contact,
phi-sectional and Sasakian checks."""

import math
from dataclasses import fields

import numpy as np
import pytest

from sasakigeo import contact, suites
from sasakigeo.contact import (
    KappaMu,
    check_contact_axioms,
    contact_data_at,
    h_at,
    k_contact_residual,
    kappa_mu_for_space_form,
    kappa_mu_residual,
    killing_residual,
    nabla_phi,
    nabla_phi_defn,
    nabla_xi,
    phi_sectional,
    psi_u_quadratics,
    sasakian_residual,
)
from sasakigeo.errors import DegeneratePlane
from sasakigeo.manifold import ChartedMetric, SpaceFormSpec, metric_at, space_form_chart
from sasakigeo.sampling import sample_ker_eta_vec, sample_sb_parts, sample_sb_point, sample_sb_vec
from sasakigeo.sphere import (
    SBVec,
    frame_at,
    horizontal_sb,
    induced_metric_at,
    point_geometry,
    sb_curvature,
    tangential_lift,
)
from sasakigeo.suites import SuiteConfig, matrix_configs, run_suite

from conftest import bumpy_chart, flat_chart

SQRT5 = math.sqrt(5.0)
SQRT8 = 2.0 * math.sqrt(2.0)


def _chart_point(n, nu, c, eps, seed=0):
    m = space_form_chart(SpaceFormSpec(n, nu, c))
    rng = np.random.default_rng(seed)
    return m, sample_sb_point(m, eps, rng), rng


class TestContactData:
    def test_eta_xi_one(self, rng):
        m, p, _ = _chart_point(2, 0, 1.0, 1)
        data = contact_data_at(m, p)
        assert data.eta(data.xi) == pytest.approx(1.0, abs=1e-15)

    def test_phi_of_horizontal_orthogonal(self, rng):
        m, p, rng = _chart_point(3, 0, 1.0, 1)
        g = metric_at(m, p.x)
        xc = rng.normal(size=3)
        xc = xc - float(xc @ g @ p.u) * p.u
        data = contact_data_at(m, p)
        got = data.phi(horizontal_sb(p, xc))
        expected = tangential_lift(m, p, xc)
        assert np.abs((got - expected).comps()).max() < 1e-14

    @pytest.mark.parametrize("nu,eps", [(0, 1), (1, -1)])
    def test_gcm_xi_is_eps(self, nu, eps):
        m, p, _ = _chart_point(2, nu, 1.0, eps)
        data = contact_data_at(m, p)
        assert data.gcm(data.xi, data.xi) == pytest.approx(eps, abs=1e-14)
        assert np.abs(data.phi(data.xi).comps()).max() < 1e-14

    @pytest.mark.parametrize("view", [contact_data_at, h_at])
    def test_a_view_holds_the_point_and_its_geometry_only(self, view):
        m, p, rng = _chart_point(3, 1, 2.0, -1)
        v = view(m, p)
        a = sample_sb_vec(m, p, rng)
        v.eta(a), v.phi(a), v.gcm(a, v.xi)  # every tensor read once
        assert [f.name for f in fields(v)] == ["at", "geo"]
        assert v.at is p and v.geo is point_geometry(m, p)
        assert set(vars(v)) == {"at", "geo", "xi"}  # xi is built on first use and kept
        assert not any(callable(x) or isinstance(x, ChartedMetric) for x in vars(v).values())

    @pytest.mark.parametrize("eps", [1, -1])
    def test_tensors_equal_the_per_call_formulas_bit_for_bit(self, rng, eps):
        m = bumpy_chart(3, 1, seed=4)
        p = sample_sb_point(m, eps, rng)
        data, geo = contact_data_at(m, p), point_geometry(m, p)
        a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
        assert np.array_equal(data.xi.comps(), np.concatenate([2.0 * p.u, np.zeros(3)]))
        assert data.eta(a) == 0.5 * eps * float(a.hpart @ metric_at(m, p.x) @ p.u)
        assert np.array_equal(data.phi(a).comps(), geo.phi_parts @ a.comps())
        assert data.gcm(a, b) == 0.25 * induced_metric_at(m, p, a, b)


class TestContactAxioms:
    @pytest.mark.parametrize("n,nu,c", [(2, 0, 0.0), (2, 0, 1.0), (3, 0, -1.0), (3, 1, 1.0), (2, 1, -1.0)])
    def test_all_axioms_hold_for_spacelike_fibers(self, n, nu, c):
        m, p, rng = _chart_point(n, nu, c, 1, seed=3)
        rep = check_contact_axioms(m, p, rng, num_samples=30)
        for chk in rep.checks:
            assert chk.passed, f"{chk.name}: {chk.max_residual}"

    @pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
    def test_timelike_fibers_fail_only_the_d_eta_axiom(self, c):
        # For eps = -1 the computed exterior derivative satisfies
        # d eta = eps g_cm(., phi .): the strict axiom breaks by a sign.
        m, p, rng = _chart_point(3, 1, c, -1, seed=4)
        rep = check_contact_axioms(m, p, rng, num_samples=30)
        by_name = {chk.name: chk for chk in rep.checks}
        d_eta = by_name.pop("d eta = g_cm(., phi .)")
        for chk in by_name.values():
            assert chk.passed, f"{chk.name}: {chk.max_residual}"
        assert not d_eta.passed
        assert d_eta.max_residual > 0.05


class TestNablaXi:
    @pytest.mark.parametrize("nu,eps,c", [(0, 1, 2.0), (1, -1, -1.5), (1, 1, 0.0)])
    def test_identity_with_h(self, nu, eps, c):
        m, p, rng = _chart_point(3, nu, c, eps, seed=5)
        data = contact_data_at(m, p)
        hop = h_at(m, p)
        for _ in range(8):
            a = sample_sb_vec(m, p, rng)
            lhs = nabla_xi(m, p, a)
            rhs = (-eps) * data.phi(a) + (-1.0) * data.phi(hop.apply(a))
            assert np.abs((lhs - rhs).comps()).max() < 1e-9

    def test_geodesic_flow(self):
        m, p, _ = _chart_point(2, 0, 1.0, 1)
        data = contact_data_at(m, p)
        assert np.abs(nabla_xi(m, p, data.xi).comps()).max() < 1e-10

    def test_flat_horizontal_zero(self, rng):
        m = flat_chart(2, 0)
        p = sample_sb_point(m, 1, rng)
        out = nabla_xi(m, p, horizontal_sb(p, rng.normal(size=2)))
        assert np.abs(out.comps()).max() < 1e-14


class TestHOperator:
    @pytest.mark.parametrize(
        "eps,c,tangential,horizontal",
        [(1, 1.0, 0.0, 0.0), (1, 0.0, 1.0, -1.0), (-1, 0.0, 3.0, 1.0)],
    )
    def test_eigenvalues(self, eps, c, tangential, horizontal):
        n, nu = 3, (0 if eps == 1 else 1)
        m, p, _ = _chart_point(n, nu, c, eps, seed=6)
        ev = h_at(m, p).eigenvalues()
        expected = np.sort([tangential] * (n - 1) + [horizontal] * (n - 1) + [0.0])
        assert np.abs(ev - expected).max() < 1e-9

    def test_h_xi_zero_and_self_adjoint(self):
        m, p, rng = _chart_point(3, 1, -1.0, -1, seed=7)
        hop = h_at(m, p)
        data = contact_data_at(m, p)
        assert np.abs(hop.apply(data.xi).comps()).max() < 1e-12
        for _ in range(10):
            a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
            assert abs(data.gcm(hop.apply(a), b) - data.gcm(a, hop.apply(b))) < 1e-8

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("generic", [False, True], ids=["space-form", "generic"])
    def test_frame_matrix_expands_apply(self, eps, generic):
        # the loop reference: column j holds the frame coefficients of h(e_j)
        m = bumpy_chart(3, 1, seed=12) if generic else space_form_chart(SpaceFormSpec(3, 1, 2.0))
        p = sample_sb_point(m, eps, np.random.default_rng(8))
        hop = h_at(m, p)
        frame = frame_at(m, p)
        ref = np.array(
            [[s * induced_metric_at(m, p, hop.apply(e), f) for e in frame.vectors] for f, s in zip(frame.vectors, frame.signs)]
        )
        assert np.abs(hop.matrix - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_eigenvalue_sums(self):
        # eps=+1: tangential+horizontal = 0; eps=-1: sum = 4 (h phi + phi h
        # does not vanish in the timelike case)
        for eps, c, total in [(1, 2.0, 0.0), (-1, 2.0, 4.0)]:
            t = 2.0 - eps * (1.0 + c)
            h = eps * (c - 1.0)
            assert t + h == pytest.approx(total, abs=1e-14)


class TestNablaPhi:
    def test_flat_hh_zero(self, rng):
        m = flat_chart(2, 0)
        p = sample_sb_point(m, 1, rng)
        a = horizontal_sb(p, rng.normal(size=2))
        b = horizontal_sb(p, rng.normal(size=2))
        assert np.abs(nabla_phi(m, p, a, b).comps()).max() < 1e-14

    def test_flat_tt_orthogonal_zero(self, rng):
        m = flat_chart(2, 0)
        p = sample_sb_point(m, 1, rng)
        w = tangential_lift(m, p, rng.normal(size=2))
        # in dimension 2 the tangential space is 1-dimensional; use a
        # u-orthogonal pair with g(X, Y) = 0 in dimension 3
        m3 = flat_chart(3, 0)
        p3 = sample_sb_point(m3, 1, rng)
        g = metric_at(m3, p3.x)
        xt = tangential_lift(m3, p3, rng.normal(size=3))
        yc = rng.normal(size=3)
        yc = yc - float(yc @ g @ p3.u) * p3.u
        yc = yc - float(yc @ g @ xt.tpart) / float(xt.tpart @ g @ xt.tpart) * xt.tpart
        out = nabla_phi(m3, p3, xt, tangential_lift(m3, p3, yc))
        assert np.abs(out.comps()).max() < 1e-12

    @pytest.mark.parametrize("nu,eps,c", [(0, 1, 1.0), (1, -1, -1.0), (0, 1, 0.0), (1, 1, 2.0)])
    def test_closed_form_equals_definition(self, nu, eps, c):
        m, p, rng = _chart_point(2, nu, c, eps, seed=8)
        for ka, kb in [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]:
            xc, yc = rng.normal(size=2), rng.normal(size=2)
            a_sb = horizontal_sb(p, xc) if ka == "h" else tangential_lift(m, p, xc)
            b_sb = horizontal_sb(p, yc) if kb == "h" else tangential_lift(m, p, yc)
            closed = nabla_phi(m, p, a_sb, b_sb)
            defn = nabla_phi_defn(m, xc, yc, ka, kb, p)
            assert np.abs((closed - defn).comps()).max() < 1e-9


class TestKappaMu:
    def test_formula_values(self):
        km = kappa_mu_for_space_form(1.0, 1)
        assert (km.kappa, km.mu) == (1.0, -2.0)
        km0 = kappa_mu_for_space_form(0.0, 1)
        assert (km0.kappa, km0.mu) == (0.0, 0.0)
        km_s = kappa_mu_for_space_form(-3.0 + SQRT8, -1)
        # kappa = eps here, yet the structure is not Sasakian: that rule needs
        # h = (1/2) L_xi phi, and Sasakian is only reached at c = eps = -1
        assert km_s.kappa == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n,nu,c,eps,kappa,mu",
        [
            (2, 0, 1.0, 1, 1.0, -2.0),
            (2, 1, 0.0, -1, 0.0, 0.0),
            (3, 1, 0.0, 1, 0.0, 0.0),
            (2, 1, -1.0, -1, -5.0, 2.0),
        ],
    )
    def test_residual_small_at_formula_values(self, n, nu, c, eps, kappa, mu):
        m, p, rng = _chart_point(n, nu, c, eps, seed=9)
        rep = kappa_mu_residual(m, p, KappaMu(kappa, mu), rng, num_samples=15)
        assert rep.checks[0].max_residual < 1e-8

    @pytest.mark.parametrize("n,nu,c,eps", [(2, 0, 0.0, 1), (3, 1, 2.0, -1)])
    def test_least_squares_fit_recovers_formula(self, n, nu, c, eps):
        # the diagnostic fit identifies (kappa, mu) whenever h is neither
        # zero nor a multiple of the identity
        km = kappa_mu_for_space_form(c, eps)
        m, p, rng = _chart_point(n, nu, c, eps, seed=9)
        rep = kappa_mu_residual(m, p, km, rng, num_samples=15)
        assert rep.params["kappa_fit"] == pytest.approx(km.kappa, abs=1e-6)
        assert rep.params["mu_fit"] == pytest.approx(km.mu, abs=1e-6)

    def test_sensitivity_to_kappa(self):
        m, p, rng = _chart_point(2, 0, 1.0, 1, seed=10)
        rep = kappa_mu_residual(m, p, KappaMu(1.1, -2.0), rng, num_samples=15)
        assert rep.checks[0].max_residual > 1e-2

    @pytest.mark.parametrize("n,nu,c,eps", [(2, 0, 1.0, 1), (3, 1, 2.0, -1)])
    def test_report_lists_the_nullity_then_the_sensitivity_row(self, n, nu, c, eps):
        # both rows read the same samples: the residual at (kappa + 0.1, mu) of the sampled system
        km = kappa_mu_for_space_form(c, eps)
        m, p, rng = _chart_point(n, nu, c, eps, seed=9)
        rep = kappa_mu_residual(m, p, km, rng, num_samples=15)
        names = [chk.name for chk in rep.checks]
        assert names == ["(kappa,mu)-nullity residual", "sensitivity: residual(kappa + 0.1) >= 1e-2"]
        assert rep.passed and rep.checks[1].max_residual == 0.0 and rep.checks[1].tol == 0.0
        # at kappa - 0.1 the perturbed kappa is the true one, so the sensitivity row fails as well
        low = kappa_mu_residual(m, p, KappaMu(km.kappa - 0.1, km.mu), np.random.default_rng(9), num_samples=15)
        assert [chk.passed for chk in low.checks] == [False, False]
        assert 0.0 < low.checks[1].max_residual <= 1e-2


class TestPsiUQuadratics:
    @pytest.mark.parametrize("n,nu,c,eps", [(3, 0, 1.0, 1), (2, 0, 0.0, 1), (3, 1, 2.0, -1)])
    def test_both_quadratics(self, n, nu, c, eps):
        m, p, _ = _chart_point(n, nu, c, eps, seed=11)
        rep = psi_u_quadratics(m, p, kappa_mu_for_space_form(c, eps))
        for chk in rep.checks:
            assert chk.passed, f"{chk.name}: {chk.max_residual}"

    def test_common_root_value(self):
        # eps=-1, c=2: the eigenvalue a = eps c = -2 solves both quadratics
        eps, c = -1, 2.0
        km = kappa_mu_for_space_form(c, eps)
        a = eps * c
        q1 = a * a + eps * km.mu * a - (eps * km.kappa + (2.0 * eps - 1.0) * km.mu)
        q2 = a * a + (eps * km.mu - 4.0) / 3.0 * a + (eps * km.kappa - km.mu) / 3.0
        assert abs(q1) < 1e-10 and abs(q2) < 1e-10


class TestKContact:
    @pytest.mark.parametrize("nu,eps,c,is_k_contact", [
        (0, 1, 1.0, True), (0, 1, 2.0, False), (1, -1, -1.0, True), (1, -1, 1.0, False),
    ])
    def test_iff_constant_curvature_eps(self, nu, eps, c, is_k_contact):
        m = space_form_chart(SpaceFormSpec(2, nu, c))
        rng = np.random.default_rng(12)
        points = [sample_sb_point(m, eps, rng) for _ in range(3)]
        rep = k_contact_residual(m, points, rng, samples_per_point=5)
        assert rep.passed == is_k_contact

    def test_plane_curvature_gap_at_c2(self):
        # K(xi, X^h-plane) = 4c - 3 eps c^2 = -4 at eps=1, c=2: gap exactly 5
        m, p, rng = _chart_point(2, 0, 2.0, 1, seed=13)
        a = sample_ker_eta_vec(m, p, rng)
        horizontal = SBVec(p, a.hpart, np.zeros(2))
        data = contact_data_at(m, p)
        k, measured = contact._sectional_rows(data, data.xi.comps(), horizontal.comps(), 1e-8)
        assert measured and abs(k - 1.0) == pytest.approx(5.0, abs=0.01)

    def test_killing_residual_magnitude(self):
        m, p, _ = _chart_point(2, 0, 2.0, 1, seed=14)
        assert killing_residual(m, p) > 0.01
        m1, p1, _ = _chart_point(2, 0, 1.0, 1, seed=14)
        assert killing_residual(m1, p1) < 1e-5

    @pytest.mark.parametrize(
        "cfg",
        # the c = eps configurations, with the point and sample counts of the ``all`` matrix
        [c for c in matrix_configs(SuiteConfig("k-contact", num_points=2, num_samples=6)) if c.c == c.eps],
        ids=lambda c: f"n={c.n},nu={c.nu},eps={c.eps:+d}",
    )
    def test_killing_residual_is_at_rounding_level_where_c_equals_eps(self, cfg):
        # one ambient Lie derivative of the analytic Tg, pulled back: no stencil nested in another
        rep = run_suite(cfg)
        killing = next(c for c in rep.checks if c.name == "L_xi g_cm = 0 (Killing)")
        assert killing.max_residual <= 1e-8


class TestPhiSectional:
    def test_constant_at_magic_curvature(self):
        c = 2.0 + SQRT5
        m = space_form_chart(SpaceFormSpec(3, 0, c))
        rng = np.random.default_rng(15)
        vals = []
        for _ in range(25):
            p = sample_sb_point(m, 1, rng)
            a = sample_ker_eta_vec(m, p, rng)
            vals.append(phi_sectional(m, p, a))
        vals = np.array(vals)
        assert vals.max() - vals.min() < 1e-6
        assert vals.mean() == pytest.approx(9.0 + 4.0 * SQRT5, abs=1e-9)

    def test_theta_dependent_at_c0(self):
        # mixed planes a = cos(t) X^h + sin(t) Y^t over independent X, Y give
        # K = 4 cos^2 t sin^2 t at a flat base: decisively non-constant
        m = flat_chart(3, 0)
        rng = np.random.default_rng(16)
        p = sample_sb_point(m, 1, rng)
        g = metric_at(m, p.x)
        xc = rng.normal(size=3)
        xc = xc - float(xc @ g @ p.u) * p.u
        xc /= np.sqrt(float(xc @ g @ xc))
        yc = rng.normal(size=3)
        yc = yc - float(yc @ g @ p.u) * p.u
        yc = yc - float(yc @ g @ xc) * xc
        yc /= np.sqrt(float(yc @ g @ yc))
        vals = []
        for theta in (0.0, np.pi / 8, np.pi / 4):
            a = math.cos(theta) * horizontal_sb(p, xc) + math.sin(theta) * tangential_lift(m, p, yc)
            vals.append(phi_sectional(m, p, a))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[2] == pytest.approx(1.0, abs=1e-12)  # 4 cos^2 sin^2 at pi/4
        assert max(vals) - min(vals) > 0.1

    def test_flat_pure_tangential_value(self):
        # span(X^t, phi X^t) = span(X^t, X^h): K = eps c^2 = 0 at a flat base
        m = flat_chart(2, 0)
        rng = np.random.default_rng(17)
        p = sample_sb_point(m, 1, rng)
        a = tangential_lift(m, p, rng.normal(size=2))
        assert phi_sectional(m, p, a) == pytest.approx(0.0, abs=1e-12)

    def test_requires_ker_eta(self):
        m, p, _ = _chart_point(2, 0, 1.0, 1, seed=18)
        with pytest.raises(DegeneratePlane):
            phi_sectional(m, p, horizontal_sb(p, p.u))

    def test_spread_argmin_lands_on_magic_curvature(self):
        # coarse c-grid: the spread statistic is minimized near c = 2 + sqrt(5)
        grid = np.arange(3.0, 5.51, 0.5)
        spreads = []
        for c in grid:
            m = space_form_chart(SpaceFormSpec(3, 0, float(c)))
            rng = np.random.default_rng(19)
            vals = []
            for _ in range(12):
                p = sample_sb_point(m, 1, rng)
                vals.append(phi_sectional(m, p, sample_ker_eta_vec(m, p, rng)))
            spreads.append(max(vals) - min(vals))
        best = grid[int(np.argmin(spreads))]
        assert abs(best - (2.0 + SQRT5)) <= 0.5


class TestOneSectionalCurvature:
    """``phi_sectional`` and the xi-planes against ``contact._sectional_rows``, the suites' path, at floor 1e-4."""

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("generic", [False, True], ids=["space-form", "generic"])
    def test_public_values_equal_the_suite_path_bit_for_bit(self, eps, generic):
        m = bumpy_chart(3, 1, seed=3) if generic else space_form_chart(SpaceFormSpec(3, 1, 2.0))
        rng = np.random.default_rng(21)
        p = sample_sb_point(m, eps, rng)
        data = contact_data_at(m, p)
        planes = 0
        for _ in range(8):
            a = sample_ker_eta_vec(m, p, rng)
            for x, y in ((data.xi, a), (a, data.phi(a))):  # k-contact's xi-plane, then the phi-plane
                den = data.gcm(x, x) * data.gcm(y, y) - data.gcm(x, y) ** 2
                k, measured = contact._sectional_rows(data, x.comps(), y.comps(), 1e-4)
                if abs(den) <= 1e-4:
                    assert not measured
                    continue
                ref = data.gcm(sb_curvature(m, p, x, y, y), x) / den
                assert measured and k == ref
                if x is a:
                    assert phi_sectional(m, p, a) == ref
                planes += 1
        assert planes >= 8

    def test_the_floors_raise_below_1e_8_and_skip_below_1e_4(self):
        m, p, rng = _chart_point(3, 0, 2.0, 1, seed=22)
        data = contact_data_at(m, p)
        a = sample_ker_eta_vec(m, p, rng)
        for is_phi, plane in ((False, lambda v: (data.xi, v)), (True, lambda v: (v, data.phi(v)))):
            tiny = 1e-3 * a if is_phi else 1e-5 * a  # |den| ~ 1e-12 and ~ 1e-10
            x, y = plane(tiny)
            assert not contact._sectional_rows(data, x.comps(), y.comps(), 1e-8)[1]
            if is_phi:
                with pytest.raises(DegeneratePlane):
                    phi_sectional(m, p, tiny)
            small = 5e-2 * a if is_phi else 3e-3 * a  # 1e-8 < |den| <= 1e-4
            x, y = plane(small)
            assert 1e-8 < abs(data.gcm(x, x) * data.gcm(y, y) - data.gcm(x, y) ** 2) <= 1e-4
            assert not contact._sectional_rows(data, x.comps(), y.comps(), 1e-4)[1]
            k, measured = contact._sectional_rows(data, x.comps(), y.comps(), 1e-8)
            assert measured and (not is_phi or phi_sectional(m, p, small) == k)

    def test_off_ker_eta_raises_on_both_paths(self, monkeypatch):
        m, p, _ = _chart_point(3, 0, 2.0, 1, seed=23)
        off = horizontal_sb(p, p.u) + sample_ker_eta_vec(m, p, np.random.default_rng(0))
        with pytest.raises(DegeneratePlane, match="ker"):
            phi_sectional(m, p, off)
        # the suite draws each point's samples as the rows of one stacked call: make them all u^h
        off_rows = lambda m, p, rng, count: np.tile(horizontal_sb(p, p.u).comps(), (count, 1))  # noqa: E731
        monkeypatch.setattr(suites, "sample_ker_eta_parts", off_rows)
        with pytest.raises(DegeneratePlane, match="ker"):
            run_suite(SuiteConfig("phi-sectional", n=3, c=2.0, num_points=1, num_samples=2))


class TestSasakian:
    def test_sasakian_at_eps1_c1(self):
        m, p, rng = _chart_point(2, 0, 1.0, 1, seed=20)
        rep = sasakian_residual(m, p, rng, num_samples=8)
        for chk in rep.checks:
            assert chk.max_residual < 1e-5, chk.name

    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_not_sasakian_away_from_c1(self, c):
        m, p, rng = _chart_point(2, 0, c, 1, seed=21)
        rep = sasakian_residual(m, p, rng, num_samples=8)
        assert max(chk.max_residual for chk in rep.checks) > 0.1

    def test_timelike_case_characterizations_split(self):
        # For eps = -1 the normality tensor vanishes exactly at c = eps,
        # while the covariant-derivative identity holds at no c (its residual
        # stays above 1 on a grid over [-3, 3]): it assumes a contact phi,
        # and phi = phi' is not contact at eps = -1.
        m, p, rng = _chart_point(2, 1, -1.0, -1, seed=22)
        rep = sasakian_residual(m, p, rng, num_samples=8)
        by_name = {chk.name: chk.max_residual for chk in rep.checks}
        assert by_name["N_phi + 2 d eta @ xi = 0"] < 1e-5
        assert by_name["(nabla phi) = g_cm @ xi - eps eta @ id"] > 0.1


class TestResidualsThatShowNothing:
    def test_a_nan_sample_fails_the_axioms(self, monkeypatch):
        m, p, _ = _chart_point(2, 0, 1.0, 1, seed=3)
        assert check_contact_axioms(m, p, np.random.default_rng(3), num_samples=8).passed
        # the third vector drawn, row 2 of the one stacked draw, is the a of the second sample

        def third_row_nan(m, p, rng, count):
            rows = sample_sb_parts(m, p, rng, count)
            rows[2] = math.nan
            return rows

        monkeypatch.setattr(contact, "sample_sb_parts", third_row_nan)
        rep = check_contact_axioms(m, p, np.random.default_rng(3), num_samples=8)
        failing = {c.name for c in rep.checks if not c.passed}
        assert failing == {"phi^2 = -Id + eta@xi", "g_cm(phi.,phi.) = g_cm - eps eta@eta"}
        assert all(math.isnan(c.max_residual) for c in rep.checks if c.name in failing)

    def test_k_contact_without_a_measurable_plane_fails(self, monkeypatch):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        rng = np.random.default_rng(12)
        points = [sample_sb_point(m, 1, rng) for _ in range(2)]
        assert k_contact_residual(m, points, np.random.default_rng(5), samples_per_point=4).passed
        zero = lambda m, p, rng, count: np.zeros((count, 2 * m.dim))  # noqa: E731  (every stacked sample row is 0)
        monkeypatch.setattr(contact, "sample_ker_eta_parts", zero)
        rep = k_contact_residual(m, points, np.random.default_rng(5), samples_per_point=4)
        killing, plane = rep.checks
        assert killing.passed
        assert plane.name == "K(xi-plane) = eps" and plane.max_residual == math.inf
        assert not rep.passed

    def test_the_axioms_refuse_zero_samples(self):
        m, p, rng = _chart_point(2, 0, 1.0, 1)
        with pytest.raises(ValueError, match="num_samples"):
            check_contact_axioms(m, p, rng, num_samples=0)

    def test_the_sasakian_checks_refuse_zero_samples(self):
        m, p, rng = _chart_point(2, 0, 2.0, 1)  # not Sasakian: with no sample it passed
        with pytest.raises(ValueError, match="num_samples"):
            sasakian_residual(m, p, rng, num_samples=0)

    def test_the_k_contact_checks_refuse_an_empty_point_list(self):
        m = space_form_chart(SpaceFormSpec(2, 0, 2.0))
        with pytest.raises(ValueError, match="points"):
            k_contact_residual(m, [], np.random.default_rng(0))

    @pytest.mark.parametrize("k", [0, 1])
    def test_the_k_contact_checks_refuse_fewer_than_two_planes_per_point(self, k):
        # the pure horizontal and the pure tangential plane are always measured,
        # so a count below 2 was read as 2
        m, p, rng = _chart_point(2, 0, 1.0, 1)
        with pytest.raises(ValueError, match="samples_per_point"):
            k_contact_residual(m, [p], rng, samples_per_point=k)

    def test_the_kappa_mu_residual_refuses_zero_samples(self):
        m, p, rng = _chart_point(2, 0, 1.0, 1)
        with pytest.raises(ValueError, match="num_samples"):
            kappa_mu_residual(m, p, kappa_mu_for_space_form(1.0, 1), rng, num_samples=0)
