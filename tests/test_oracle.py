"""The finite-difference ground-truth path itself."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sasakigeo import contact, manifold, oracle, sphere, stencil
from sasakigeo.contact import contact_data_at, d_eta_tensor, phi_matrix_fn
from sasakigeo.errors import PointMismatch
from sasakigeo.manifold import SpaceFormSpec, christoffel_at, metric_at, riemann_at, space_form_chart
from sasakigeo.oracle import (
    ambient_nabla,
    fd_christoffel,
    fd_exterior_derivative,
    fd_lie_bracket,
    fd_lie_derivative_metric,
    fd_nijenhuis,
    fd_riemann,
    field_jet,
    gauss_curvature_oracle,
    gauss_oracle,
    geodesic_flow_field_fn,
    GaussOracle,
    hypersurface_pullback,
    lift_field_fn,
    sasaki_gamma_fn,
    sasaki_metric_fn,
    sb_lift_field_fn,
    sb_nabla_via_ambient,
    _embed_induced,
)
from sasakigeo.sampling import sample_domain_point, sample_sb_parts, sample_sb_point, sample_sb_vec
from sasakigeo.sphere import (
    SBPoint,
    SBVec,
    horizontal_sb,
    induced_metric_at,
    point_geometry,
    sb_bracket,
    sb_point,
    tangential_lift,
)
from sasakigeo.stencil import FD_STEP_FIRST, central_difference

from conftest import bumpy_chart, patch_everywhere

LIFT_PAIRS = [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]


class TestFdChristoffel:
    def test_flat_zero(self, flat2):
        gamma = fd_christoffel(flat2.metric_fn, np.array([0.3, -0.1]))
        assert np.abs(gamma).max() < 1e-10

    def test_space_form_matches_analytic(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        x = sample_domain_point(m, rng)
        diff = fd_christoffel(m.metric_fn, x) - christoffel_at(m, x)
        assert np.abs(diff).max() < 1e-6

    def test_sasaki_chart_of_flat_base_is_flat(self, flat2, rng):
        tg = sasaki_metric_fn(flat2)
        z = rng.normal(size=4)
        assert np.abs(fd_christoffel(tg, z)).max() < 1e-10

    def test_step_halving_convergence(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        x = sample_domain_point(m, rng)
        exact = christoffel_at(m, x)
        e1 = np.abs(fd_christoffel(m.metric_fn, x, 1e-5) - exact).max()
        e2 = np.abs(fd_christoffel(m.metric_fn, x, 5e-6) - exact).max()
        assert e2 < 4.0 * max(e1, 1e-12)


class TestFdRiemann:
    def test_flat_zero(self, flat2):
        r = fd_riemann(lambda x: christoffel_at(flat2, x), np.zeros(2))
        assert np.abs(r).max() < 1e-12

    def test_space_form_matches_analytic(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        x = sample_domain_point(m, rng)
        fd = fd_riemann(lambda y: christoffel_at(m, y), x)
        assert np.abs(fd - riemann_at(m, x)).max() < 1e-5

    def test_sasaki_metric_of_flat_base_is_flat(self, flat2, rng):
        # the almost-Kaehler structure of TM is Kaehler (flat) iff the base is flat
        z = rng.normal(size=4)
        r = fd_riemann(sasaki_gamma_fn(flat2), z)
        assert np.abs(r).max() < 1e-9


class TestHypersurfacePullback:
    def test_flat_circle_chart_by_hand(self, flat2):
        # u = (0.6, 0.8): solved index 1, w = (x1, x2, u1),
        # J columns e1, e2, (0,0,1,-u1/u2): pullback = diag(1, 1, 1 + 0.5625)
        p = sb_point(flat2, np.zeros(2), np.array([0.6, 0.8]), 1)
        chart = hypersurface_pullback(flat2, p)
        assert chart.solved_index == 1
        assert list(chart.keep) == [0, 1, 2]
        expected_jac = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -0.75]])
        assert np.abs(chart.jacobian - expected_jac).max() < 1e-15
        assert np.abs(chart.pullback_metric - np.diag([1.0, 1.0, 1.5625])).max() < 1e-15

    @pytest.mark.parametrize("n,nu,c,eps", [(2, 0, 1.0, 1), (3, 1, -1.0, -1), (3, 1, 2.0, 1)])
    def test_agreement_with_induced_metric(self, rng, n, nu, c, eps):
        # the Jacobian is exact, so the pullback agrees with the induced metric to rounding
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        p = sample_sb_point(m, eps, rng)
        chart = hypersurface_pullback(m, p)
        for _ in range(20):
            v1 = sample_sb_vec(m, p, rng)
            v2 = sample_sb_vec(m, p, rng)
            w1 = chart.drop(_embed_induced(m, v1))
            w2 = chart.drop(_embed_induced(m, v2))
            assert float(w1 @ chart.pullback_metric @ w2) == pytest.approx(
                induced_metric_at(m, p, v1, v2), abs=1e-12
            )

    @pytest.mark.parametrize("base", ["space form", "bumpy"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_exact_jacobian_matches_the_stencil(self, rng, base, eps):
        # each column of J is tangent to F = g_x(u, u) - eps = 0, by one stencil of the raw F,
        # and J holds the identity on the kept coordinates
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if base == "space form" else bumpy_chart(3, 1)

        def constraint(z):
            return float(z[3:] @ m.metric_fn(z[:3]) @ z[3:]) - eps

        for _ in range(3):
            p = sample_sb_point(m, eps, rng)
            chart = hypersurface_pullback(m, p)
            z0 = np.concatenate([p.x, p.u])
            for col in chart.jacobian.T:
                assert abs(central_difference(constraint, z0, col, FD_STEP_FIRST)) < 1e-8
            assert (chart.jacobian[chart.keep] == np.eye(5)).all()

    def test_jacobian_has_full_rank(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        chart = hypersurface_pullback(m, sample_sb_point(m, -1, rng))
        # J holds the identity on the kept coordinates, so its smallest singular value is >= 1
        assert np.linalg.svd(chart.jacobian, compute_uv=False).min() >= 1.0 - 1e-12

    def test_solvable_index_gradient(self, rng):
        # the constraint gradient 2 g(., u) never vanishes for g(u,u) = eps
        m = space_form_chart(SpaceFormSpec(2, 1, 0.0))
        p = sample_sb_point(m, -1, rng)
        g = metric_at(m, p.x)
        assert np.abs(2.0 * g @ p.u).max() > 1e-6


def const_lift_jacobian_fn(m, w, kind, eps):
    """Exact z-Jacobian of the lift field of a constant base vector w: w contracted with ``oracle._lift_jacobians``.

    The chart must carry analytic g' and g''.
    """
    n = m.dim
    w = np.asarray(w, dtype=float)
    part = slice(None, n) if kind == "h" else slice(n, None)

    def jac(z):
        return np.tensordot(w, oracle._lift_jacobians(oracle.base_jet(m, z[:n]), z[n:], eps)[part], 1)

    return jac


def _ii_derivative_reference(m, p, a, b):
    """Reference: II(A, B) = eps Tg(nabla-tilde_A B, N), the derivative form the Weingarten relation replaced.

    A and B are extended by the lift fields of their constant base parts,
    which are tangent to T_eps M; the charts here have analytic derivatives,
    so the Jacobian of B's extension is exact.
    """
    z0 = np.concatenate([p.x, p.u])

    def extension(v):
        hf, tf = lift_field_fn(m, v.hpart, "h"), sb_lift_field_fn(m, v.tpart, "t", p.eps)
        return lambda z: hf(z) + tf(z)

    jh, jt = const_lift_jacobian_fn(m, b.hpart, "h", p.eps), const_lift_jacobian_fn(m, b.tpart, "t", p.eps)
    nab = ambient_nabla(extension(a)(z0), (extension(b)(z0), jh(z0) + jt(z0)), sasaki_gamma_fn(m)(z0))
    return p.eps * float(nab @ sasaki_metric_fn(m)(z0) @ np.concatenate([np.zeros(m.dim), p.u]))


class TestGaussOracle:
    def test_flat_all_tangential_reproduces_closed_form(self, flat2, rng):
        from sasakigeo.oracle import gauss_curvature_oracle

        p = sample_sb_point(flat2, 1, rng)
        xt = tangential_lift(flat2, p, rng.normal(size=2))
        yt = tangential_lift(flat2, p, rng.normal(size=2))
        zt = tangential_lift(flat2, p, rng.normal(size=2))
        oracle = gauss_curvature_oracle(flat2, p, xt, yt, zt)
        expected = (-induced_metric_at(flat2, p, xt, zt)) * yt + induced_metric_at(
            flat2, p, zt, yt
        ) * xt  # eps = +1
        assert np.abs((oracle - expected).comps()).max() < 1e-9

    @pytest.mark.parametrize(
        "n,nu,c,eps,kinds",
        [
            (2, 0, 1.0, 1, ("h", "t", "h")),
            (3, 1, -1.0, -1, ("h", "h", "h")),
            (3, 1, 2.0, 1, ("t", "t", "h")),
        ],
    )
    def test_case_match(self, rng, n, nu, c, eps, kinds):
        from sasakigeo.oracle import gauss_curvature_oracle
        from sasakigeo.sphere import sb_curvature

        m = space_form_chart(SpaceFormSpec(n, nu, c))
        p = sample_sb_point(m, eps, rng)
        vecs = []
        for kind in kinds:
            w = rng.normal(size=n)
            vecs.append(horizontal_sb(p, w) if kind == "h" else tangential_lift(m, p, w))
        closed = sb_curvature(m, p, *vecs)
        oracle = gauss_curvature_oracle(m, p, *vecs)
        assert np.abs((closed - oracle).comps()).max() < 1e-5

    def test_second_fundamental_form_symmetric(self, rng):
        m = bumpy_chart(2, 0, seed=8)
        p = sample_sb_point(m, 1, rng)
        a = sample_sb_vec(m, p, rng)
        b = sample_sb_vec(m, p, rng)
        gauss = GaussOracle(m, p)
        ii_ab, ii_ba = gauss.second_fundamental_form_rows(a.comps(), b.comps()), gauss.second_fundamental_form_rows(b.comps(), a.comps())
        assert ii_ab == pytest.approx(ii_ba, abs=1e-8)

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_second_fundamental_form_matches_the_derivative_form(self, rng, chart, eps):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1)
        p = sample_sb_point(m, eps, rng)
        gauss = GaussOracle(m, p)
        for _ in range(6):
            a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
            ii = gauss.second_fundamental_form_rows(a.comps(), b.comps())
            assert abs(ii - _ii_derivative_reference(m, p, a, b)) <= 1e-12

    def test_curvature_point_mismatch(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        p1 = sample_sb_point(m, 1, rng)
        p2 = sample_sb_point(m, -1, rng)
        a = sample_sb_vec(m, p1, rng)
        with pytest.raises(PointMismatch):
            gauss_curvature_oracle(m, p1, a, sample_sb_vec(m, p2, rng), a)

    def test_curvature_base_point_mismatch(self, flat2):
        u = np.array([0.6, 0.8])
        p1 = sb_point(flat2, np.zeros(2), u, 1)
        p2 = sb_point(flat2, np.array([0.1, 0.0]), u, 1)  # same u and eps, other x
        a = horizontal_sb(p1, np.ones(2))
        with pytest.raises(PointMismatch):
            gauss_curvature_oracle(flat2, p1, a, horizontal_sb(p2, np.ones(2)), a)


class TestFdLieBracket:
    def test_coordinate_fields_commute(self):
        z = np.array([0.1, 0.2, 0.3, 0.4])
        e1 = lambda w: np.array([1.0, 0.0, 0.0, 0.0])
        e2 = lambda w: np.array([0.0, 0.0, 1.0, 0.0])
        assert np.abs(fd_lie_bracket(e1, e2, z)).max() < 1e-12

    def test_horizontal_bracket_identity(self, rng):
        # [X^h, Y^h] = [X,Y]^h - v{R(X,Y)u} against the FD bracket
        from sasakigeo.tangent import TMPoint, lift_bracket, to_induced_coords

        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        x = sample_domain_point(m, rng)
        from sasakigeo.sampling import sample_fiber_vector

        u = sample_fiber_vector(m, x, 1, rng)
        at = TMPoint(x, u)
        z0 = np.concatenate([x, u])

        def xf(y):
            return np.array([y[1] ** 2 + 0.2, y[0]])

        def yf(y):
            return np.array([np.sin(y[0]), y[0] * y[1]])

        closed = to_induced_coords(m, lift_bracket(m, xf, yf, "h", "h", at))
        fd = fd_lie_bracket(lift_field_fn(m, xf, "h"), lift_field_fn(m, yf, "h"), z0)
        assert np.abs(closed - fd).max() < 1e-5

    def test_tangential_bracket_identity(self, rng):
        from sasakigeo.sphere import sb_bracket

        m = space_form_chart(SpaceFormSpec(2, 1, -1.0))
        p = sample_sb_point(m, -1, rng)
        z0 = np.concatenate([p.x, p.u])
        xc, yc = rng.normal(size=2), rng.normal(size=2)
        closed = _embed_induced(m, sb_bracket(m, xc, yc, "t", "t", p))
        fd = fd_lie_bracket(
            sb_lift_field_fn(m, xc, "t", -1), sb_lift_field_fn(m, yc, "t", -1), z0
        )
        assert np.abs(closed - fd).max() < 1e-5


class TestFdLieDerivativeMetric:
    def test_rotation_is_killing_on_flat_plane(self):
        rot = lambda z: np.array([-z[1], z[0]])
        gfn = lambda z: np.eye(2)
        lie = fd_lie_derivative_metric(rot, gfn, np.array([0.3, 0.4]))
        assert np.abs(lie).max() < 1e-8

    def test_geodesic_flow_killing_iff_c_equals_eps(self, rng):
        from sasakigeo.contact import killing_residual

        m1 = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p1 = sample_sb_point(m1, 1, rng)
        assert killing_residual(m1, p1) < 1e-5
        m2 = space_form_chart(SpaceFormSpec(2, 0, 2.0))
        p2 = sample_sb_point(m2, 1, rng)
        assert killing_residual(m2, p2) > 0.01


def _d_eta(m, p, xfield, kind_x, yfield, kind_y):
    """d(eta)(A, B) of lift fields: (1/2) A^T D B with D = ``d_eta_tensor(m, p)`` and A, B the lift values at p."""
    z0 = np.concatenate([p.x, p.u])
    a0 = sb_lift_field_fn(m, xfield, kind_x, p.eps)(z0)
    b0 = sb_lift_field_fn(m, yfield, kind_y, p.eps)(z0)
    return 0.5 * float(a0 @ d_eta_tensor(m, p) @ b0)


class TestFdExteriorDerivative:
    def test_exact_form_closed(self, rng):
        coeffs = rng.normal(size=4)
        omega = lambda z: coeffs * z  # omega = d(sum c_i z_i^2 / 2)
        assert np.abs(fd_exterior_derivative(omega, rng.normal(size=4))).max() < 1e-8

    def test_eta_prime_factor_two_identity_spacelike(self, rng):
        # 2 d eta'(A, B) = gbar(A, phi'B) for eps = +1
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p = sample_sb_point(m, 1, rng)
        data = contact_data_at(m, p)
        xc, yc = rng.normal(size=2), rng.normal(size=2)
        two_deta_prime = 4.0 * _d_eta(m, p, xc, "h", yc, "t")  # eta' = 2 eta
        a = horizontal_sb(p, xc)
        b = tangential_lift(m, p, yc)
        assert two_deta_prime == pytest.approx(
            induced_metric_at(m, p, a, data.phi(b)), abs=1e-5
        )

    def test_eta_prime_identity_carries_eps_for_timelike(self, rng):
        # for eps = -1 the same computation gives 2 d eta' = eps gbar(., phi'.)
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        p = sample_sb_point(m, -1, rng)
        data = contact_data_at(m, p)
        xc, yc = rng.normal(size=2), rng.normal(size=2)
        two_deta_prime = 4.0 * _d_eta(m, p, xc, "h", yc, "t")
        a = horizontal_sb(p, xc)
        b = tangential_lift(m, p, yc)
        gbar_phi = induced_metric_at(m, p, a, data.phi(b))
        assert two_deta_prime == pytest.approx(-gbar_phi, abs=1e-5)
        assert abs(two_deta_prime - gbar_phi) > 0.05 * abs(gbar_phi) + 1e-8

    def test_rescaled_eta_axiom_spacelike(self, rng):
        # d eta = g_cm(., phi .) after the (1/2, 2, 1/4) rescaling, eps = +1
        m = space_form_chart(SpaceFormSpec(3, 0, -1.0))
        p = sample_sb_point(m, 1, rng)
        data = contact_data_at(m, p)
        xc, yc = rng.normal(size=3), rng.normal(size=3)
        deta = _d_eta(m, p, xc, "h", yc, "t")
        a = horizontal_sb(p, xc)
        b = tangential_lift(m, p, yc)
        assert deta == pytest.approx(data.gcm(a, data.phi(b)), abs=1e-5)


def _d_eta_bracket_reference(m, p, xfield, kind_x, yfield, kind_y):
    """Reference: d(eta)(A, B) = (1/2)[A(eta(B)) - B(eta(A)) - eta([A, B])].

    Two scalar central differences of eta along the lift directions and the
    closed-form bracket, as the contact layer computed it before one
    exterior-derivative stencil per point replaced it.
    """
    n, eps = m.dim, p.eps
    z0 = np.concatenate([p.x, p.u])

    def eta_of(z, w):
        return 0.5 * eps * float(np.asarray(w)[:n] @ np.asarray(m.metric_fn(z[:n])) @ z[n:])

    afn = sb_lift_field_fn(m, xfield, kind_x, eps)
    bfn = sb_lift_field_fn(m, yfield, kind_y, eps)
    da = central_difference(lambda z: eta_of(z, bfn(z)), z0, afn(z0), FD_STEP_FIRST)
    db = central_difference(lambda z: eta_of(z, afn(z)), z0, bfn(z0), FD_STEP_FIRST)
    lie = sb_bracket(m, xfield, yfield, kind_x, kind_y, p)
    eta_lie = 0.5 * eps * float(lie.hpart @ metric_at(m, p.x) @ p.u)
    return 0.5 * (da - db - eta_lie)


class TestDEtaStencil:
    @pytest.mark.parametrize("n,nu,eps,c", [(2, 0, 1, 1.0), (3, 1, 1, 2.0), (3, 1, -1, -1.0)])
    def test_tensor_matches_bracket_form_on_lift_pairs(self, rng, n, nu, eps, c):
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        p = sample_sb_point(m, eps, rng)
        z0 = np.concatenate([p.x, p.u])
        kinds = [("h", "t"), ("h", "h"), ("t", "t"), ("t", "h")]
        for k in range(8):
            kx, ky = kinds[k % 4]
            if k < 4:  # constant base vectors, as the suites use
                xf, yf = rng.normal(size=n), rng.normal(size=n)
            else:  # d eta is tensorial: only the values of the fields at p enter
                lin_x, lin_y = rng.normal(size=(n, n)), rng.normal(size=(n, n))
                xf = lambda x, a=lin_x: a @ x + np.sin(x)
                yf = lambda x, a=lin_y: a @ (x * x) + 1.0
            a0 = sb_lift_field_fn(m, xf, kx, eps)(z0)
            b0 = sb_lift_field_fn(m, yf, ky, eps)(z0)
            ref = _d_eta_bracket_reference(m, p, xf, kx, yf, ky)
            scale = max(1.0, np.linalg.norm(a0) * np.linalg.norm(b0))
            assert abs(0.5 * a0 @ d_eta_tensor(m, p) @ b0 - ref) <= 1e-8 * scale

    def test_eta_form_differenced_once_per_point(self, monkeypatch):
        shapes = []
        make_form = contact.eta_form_fn

        def tracked_eta_form_fn(m, eps):
            form = make_form(m, eps)
            return lambda z, jets=None: shapes.append(np.shape(z)) or form(z, jets)

        monkeypatch.setattr(contact, "eta_form_fn", tracked_eta_form_fn)
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        for i in range(3):
            rng = np.random.default_rng(i)
            p = sample_sb_point(m, 1, rng)
            contact.sasakian_residual(m, p, rng, num_samples=8)
            contact.check_contact_axioms(m, p, rng, num_samples=32)  # 8 d eta samples
        # one evaluation on the 4n + 1 stacked rows of each point's stencil, none row by row
        assert shapes == [(9, 4)] * 6


class TestOracleIndependence:
    @pytest.mark.parametrize("chart,eps", [("space form", -1), ("bumpy", 1)])
    def test_oracle_reads_no_closed_form_geometry(self, monkeypatch, rng, chart, eps):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1)
        p = sample_sb_point(m, eps, rng)
        a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
        xc, yc = rng.normal(size=3), rng.normal(size=3)
        z0 = np.concatenate([p.x, p.u])

        def values(m):
            hx, hy = lift_field_fn(m, xc, "h"), lift_field_fn(m, yc, "h")
            return [
                gauss_curvature_oracle(m, p, a, b, cv).comps(),
                sb_nabla_via_ambient(m, xc, yc, "h", "t", p).comps(),
                sb_nabla_via_ambient(m, xc, yc, "t", "h", p).comps(),
                fd_nijenhuis(phi_matrix_fn(m, eps), z0),
                d_eta_tensor(m, p),
                _d_eta(m, p, xc, "h", yc, "t"),
                hx(z0),
                sb_lift_field_fn(m, yc, "t", eps)(z0),
                fd_lie_bracket(hx, hy, z0),
                contact.killing_residual(m, p),
            ]

        before = values(m)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle read the closed-form geometry")

        for fn in (manifold.riemann_at, manifold.christoffel_at, manifold.metric_at, sphere.point_geometry):
            patch_everywhere(monkeypatch, fn, forbidden)
        # a copy of the chart keeps no base jets, so every jet is built again with the closed forms barred
        after = values(replace(m))
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


def _bracket_nijenhuis(phi_fn, afield_fn, bfield_fn, z):
    """Reference: N_phi(A,B) = phi^2 [A,B] + [phi A, phi B] - phi [phi A, B] - phi [A, phi B]."""
    phi0 = np.asarray(phi_fn(z), dtype=float)

    def phi_a(w):
        return np.asarray(phi_fn(w)) @ np.asarray(afield_fn(w))

    def phi_b(w):
        return np.asarray(phi_fn(w)) @ np.asarray(bfield_fn(w))

    term1 = phi0 @ (phi0 @ fd_lie_bracket(afield_fn, bfield_fn, z))
    term2 = fd_lie_bracket(phi_a, phi_b, z)
    term3 = phi0 @ fd_lie_bracket(phi_a, bfield_fn, z)
    term4 = phi0 @ fd_lie_bracket(afield_fn, phi_b, z)
    return term1 + term2 - term3 - term4


def _nijenhuis_on(phi_fn, afield_fn, bfield_fn, z):
    """N_phi(A, B) at z, contracted from the tensor."""
    return (fd_nijenhuis(phi_fn, z) @ bfield_fn(z)) @ afield_fn(z)


class TestFdNijenhuis:
    def test_constant_phi_constant_fields_flat(self):
        # all four brackets vanish, so the torsion does too
        phi = lambda z: np.array([[0.0, -1.0], [1.0, 0.0]])
        a = lambda z: np.array([1.0, 2.0])
        b = lambda z: np.array([-0.5, 1.0])
        out = _nijenhuis_on(phi, a, b, np.array([0.1, 0.2]))
        assert np.abs(out).max() < 1e-10

    def test_sasakian_case_normal(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p = sample_sb_point(m, 1, rng)
        z0 = np.concatenate([p.x, p.u])
        phim = phi_matrix_fn(m, 1)
        xi_ind = geodesic_flow_field_fn(m)(z0)
        xc, yc = rng.normal(size=2), rng.normal(size=2)
        afn = sb_lift_field_fn(m, xc, "h", 1)
        bfn = sb_lift_field_fn(m, yc, "t", 1)
        nphi = _nijenhuis_on(phim, afn, bfn, z0)
        res = nphi + 2.0 * _d_eta(m, p, xc, "h", yc, "t") * xi_ind
        assert np.abs(res).max() < 1e-5

    def test_flat_base_not_normal(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 0.0))
        p = sample_sb_point(m, 1, rng)
        z0 = np.concatenate([p.x, p.u])
        phim = phi_matrix_fn(m, 1)
        xi_ind = geodesic_flow_field_fn(m)(z0)
        worst = 0.0
        for _ in range(6):
            xc, yc = rng.normal(size=2), rng.normal(size=2)
            afn = sb_lift_field_fn(m, xc, "h", 1)
            bfn = sb_lift_field_fn(m, yc, "h", 1)
            nphi = _nijenhuis_on(phim, afn, bfn, z0)
            res = nphi + 2.0 * _d_eta(m, p, xc, "h", yc, "h") * xi_ind
            worst = max(worst, np.abs(res).max())
        assert worst > 0.1

    @pytest.mark.parametrize("n,nu,eps,c", [(2, 0, 1, 1.0), (3, 1, 1, 2.0), (3, 1, -1, -1.0)])
    def test_tensor_matches_bracket_form_on_lift_pairs(self, rng, n, nu, eps, c):
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        p = sample_sb_point(m, eps, rng)
        z0 = np.concatenate([p.x, p.u])
        phim = phi_matrix_fn(m, eps)
        tensor = fd_nijenhuis(phim, z0)
        kinds = [("h", "t"), ("h", "h"), ("t", "t"), ("t", "h")]
        for k in range(8):
            kx, ky = kinds[k % 4]
            afn = sb_lift_field_fn(m, rng.normal(size=n), kx, eps)
            bfn = sb_lift_field_fn(m, rng.normal(size=n), ky, eps)
            a0, b0 = afn(z0), bfn(z0)
            ref = _bracket_nijenhuis(phim, afn, bfn, z0)
            # both sides are bilinear in (A, B), and so is their FD noise: at
            # timelike points the lift components reach ~10
            scale = max(1.0, np.linalg.norm(a0) * np.linalg.norm(b0))
            assert np.abs((tensor @ b0) @ a0 - ref).max() <= 1e-8 * scale

    def test_tensor_matches_bracket_form_nonconstant_phi_flat(self, rng):
        # a quadratic endomorphism field and quadratic vector fields on R^3
        m0, m1, m2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3, 3))
        phi = lambda z: m0 + np.einsum("ijk,k->ij", m1, z) + 0.5 * np.einsum("ijk,k->ij", m2, z) * z[0]
        a1, a2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3, 3))
        b0, b1 = rng.normal(size=3), rng.normal(size=(3, 3))
        a = lambda z: a1 @ z + np.einsum("ijk,j,k->i", a2, z, z)
        b = lambda z: b0 + b1 @ z
        z = np.array([0.2, -0.1, 0.3])
        ref = _bracket_nijenhuis(phi, a, b, z)
        assert np.abs(ref).max() > 0.1  # a non-integrable phi: the check compares nonzero values
        assert np.abs(_nijenhuis_on(phi, a, b, z) - ref).max() <= 1e-8


class TestPerPointOracles:
    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_fused_sasaki_gamma_matches_fd_koszul(self, rng, chart):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0)) if chart == "space form" else bumpy_chart(3, 1)
        for _ in range(3):
            p = sample_sb_point(m, -1, rng)
            z0 = np.concatenate([p.x, p.u])
            fused = sasaki_gamma_fn(m)(z0)
            assert np.abs(fused - fd_christoffel(sasaki_metric_fn(m), z0)).max() < 1e-6

    @pytest.mark.parametrize("n,nu,c,eps", [(2, 0, 1.0, 1), (3, 1, 2.0, -1)])
    def test_gauss_oracle_object_equals_function(self, rng, n, nu, c, eps):
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        p = sample_sb_point(m, eps, rng)
        oracle = GaussOracle(m, p)  # a context of its own, not the one the point keeps
        for _ in range(3):
            a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
            rows = oracle.curvature_rows(a.comps(), b.comps(), cv.comps())
            assert np.array_equal(rows, gauss_curvature_oracle(m, p, a, b, cv).comps())

    def test_sasakian_residual_differentiates_phi_once_per_point(self, monkeypatch):
        from sasakigeo import contact

        shapes = []
        make_phi = contact.phi_matrix_fn

        def tracked_phi_matrix_fn(m, eps):
            phim = make_phi(m, eps)
            return lambda z, jets=None: shapes.append(np.shape(z)) or phim(z, jets)

        monkeypatch.setattr(contact, "phi_matrix_fn", tracked_phi_matrix_fn)
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        for i in range(3):
            rng = np.random.default_rng(i)
            contact.sasakian_residual(m, sample_sb_point(m, 1, rng), rng, num_samples=8)
        assert shapes == [(9, 4)] * 3  # one evaluation on each point's stacked stencil rows

    def test_oracle_suite_builds_ambient_curvature_once_per_point(self, monkeypatch):
        from sasakigeo import oracle
        from sasakigeo.suites import SuiteConfig, run_suite

        sizes = []
        riemann = oracle._riemann  # the R formula of both R-tilde and fd_riemann

        def counted_riemann(gamma, dgamma):
            sizes.append(gamma.shape[0])
            return riemann(gamma, dgamma)

        monkeypatch.setattr(oracle, "_riemann", counted_riemann)
        run_suite(SuiteConfig("oracle-crosscheck", n=2, num_points=2, num_samples=24))  # 3 triples a point
        assert sizes.count(4) == 2  # R-tilde on the 2n-dimensional TM chart
        assert sizes.count(2) == 2  # the base curvature check


class TestKeptGaussOracle:
    """One ``GaussOracle`` per (chart, bundle point), kept by the point."""

    @pytest.mark.parametrize("chart,eps", [("space form", -1), ("bumpy", 1)])
    def test_one_build_and_one_r_tilde_per_chart_and_point(self, monkeypatch, rng, chart, eps):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1)
        p = sample_sb_point(m, eps, rng)
        geo = point_geometry(m, p)
        triples = [tuple(sample_sb_vec(m, p, rng) for _ in range(3)) for _ in range(4)]
        pairs = [(rng.normal(size=3), rng.normal(size=3), kx, ky) for kx, ky in ("hh", "ht", "th", "tt")]
        fresh, copy = GaussOracle(m, p), SBPoint(p.x.copy(), p.u.copy(), eps)
        curvatures = [fresh.curvature_rows(a.comps(), b.comps(), cv.comps()) for a, b, cv in triples]
        nablas = [sb_nabla_via_ambient(m, xc, yc, kx, ky, copy).comps() for xc, yc, kx, ky in pairs]

        builds, riemanns, nabla_arrays = [], [], []
        init, real_riemann, real_jacobians = GaussOracle.__init__, oracle._riemann, oracle._lift_jacobians

        def counted_init(self, m, p):
            builds.append(m)
            init(self, m, p)

        def counted_riemann(*args):
            riemanns.append(None)
            return real_riemann(*args)

        def counted_jacobians(*args):
            nabla_arrays.append(None)
            return real_jacobians(*args)

        monkeypatch.setattr(GaussOracle, "__init__", counted_init)
        monkeypatch.setattr(oracle, "_riemann", counted_riemann)
        monkeypatch.setattr(oracle, "_lift_jacobians", counted_jacobians)
        for (a, b, cv), curvature, (xc, yc, kx, ky), nabla in zip(triples, curvatures, pairs, nablas):
            assert np.array_equal(gauss_curvature_oracle(m, p, a, b, cv).comps(), curvature)
            assert np.array_equal(sb_nabla_via_ambient(m, xc, yc, kx, ky, p).comps(), nabla)
        assert len(builds) == 1 and len(riemanns) == 1 and len(nabla_arrays) == 1
        assert gauss_oracle(m, p) is gauss_oracle(m, p) and point_geometry(m, p) is geo  # side by side on p

        other = replace(m)  # an equal chart, but another object
        assert np.array_equal(gauss_curvature_oracle(other, p, *triples[0]).comps(), curvatures[0])
        assert builds == [m, other] and len(riemanns) == 2

    def test_kept_contexts_follow_reassigned_metric_callables(self, rng):
        m = replace(space_form_chart(SpaceFormSpec(3, 0, 1.0)), deriv1_fn=None, deriv2_fn=None)
        p = sample_sb_point(m, 1, rng)
        a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
        g0, before = point_geometry(m, p).base.g, gauss_curvature_oracle(m, p, a, b, cv).comps()
        metric = m.metric_fn
        m.metric_fn = lambda y: 2.0 * metric(y)
        assert np.array_equal(point_geometry(m, p).base.g, 2.0 * g0)
        doubled = gauss_curvature_oracle(m, p, a, b, cv).comps()
        assert np.array_equal(doubled, GaussOracle(m, p).curvature_rows(a.comps(), b.comps(), cv.comps()))
        assert not np.allclose(doubled, before)
        m.metric_fn = lambda y: 1.0 * metric(y)  # other callables again, the first values again
        assert np.array_equal(point_geometry(m, p).base.g, g0)
        assert np.array_equal(gauss_curvature_oracle(m, p, a, b, cv).comps(), before)

    def test_the_kept_nabla_array_follows_reassigned_metric_callables(self, monkeypatch, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        other = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        own = (m.metric_fn, m.deriv1_fn, m.deriv2_fn)
        p = sample_sb_point(m, 1, rng)
        pairs = [(rng.normal(size=3), rng.normal(size=3), kx, ky) for kx, ky in LIFT_PAIRS]
        arrays, real = [], oracle._lift_jacobians
        monkeypatch.setattr(oracle, "_lift_jacobians", lambda *args: arrays.append(None) or real(*args))

        def nablas(chart, at):
            return [sb_nabla_via_ambient(chart, xc, yc, kx, ky, at).comps() for xc, yc, kx, ky in pairs]

        before = nablas(m, p)
        assert len(arrays) == 1
        m.metric_fn, m.deriv1_fn, m.deriv2_fn = other.metric_fn, other.deriv1_fn, other.deriv2_fn
        swapped = nablas(m, p)
        assert len(arrays) == 2
        assert all(np.array_equal(a, b) for a, b in zip(swapped, nablas(other, SBPoint(p.x.copy(), p.u.copy(), 1))))
        assert not all(np.allclose(a, b) for a, b in zip(swapped, before))
        m.metric_fn, m.deriv1_fn, m.deriv2_fn = own  # the first callables again, the first values again
        assert all(np.array_equal(a, b) for a, b in zip(nablas(m, p), before)) and len(arrays) == 4

    def test_the_kept_context_does_not_keep_its_point_alive(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        gc.disable()  # only reference counts can free p
        try:
            p = sample_sb_point(m, -1, rng)
            a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
            gauss_curvature_oracle(m, p, a, b, cv)
            sb_nabla_via_ambient(m, rng.normal(size=3), rng.normal(size=3), "h", "t", p)
            ref = weakref.ref(p)
            del p, a, b, cv
            assert ref() is None
        finally:
            gc.enable()

    def test_vectors_at_another_point_are_refused(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        p1, p2 = sample_sb_point(m, 1, rng), sample_sb_point(m, 1, rng)
        here, there = sample_sb_vec(m, p1, rng), sample_sb_vec(m, p2, rng)
        for vecs in ((there, here, here), (here, there, here), (here, here, there)):
            with pytest.raises(PointMismatch):
                gauss_curvature_oracle(m, p1, *vecs)
        copy = SBPoint(p1.x.copy(), p1.u.copy(), 1)  # the same coordinates are the same point
        moved = SBVec(copy, here.hpart, here.tpart)
        same = gauss_curvature_oracle(m, p1, here, here, here).comps()
        assert np.array_equal(gauss_curvature_oracle(m, p1, moved, here, here).comps(), same)


def _oracle_chart(chart):
    """A space form, a non-locally-symmetric chart, or a space form with no analytic derivatives."""
    if chart == "bumpy":
        return bumpy_chart(3, 1)
    m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
    return replace(m, deriv1_fn=None, deriv2_fn=None) if chart == "no derivatives" else m


def _r_tilde_step(m):
    return stencil.FD_STEP_SECOND if m.uses_fd_derivatives else stencil.FD_STEP_GAMMA


def _per_call_weingarten(gauss, aval):
    """Reference: nabla-tilde_A N = dN(A) + Gamma-tilde(A, N), N = (0; u), from and in induced components."""
    n = gauss.m.dim
    dn = np.concatenate([np.zeros(n), aval[n:]])
    return dn + np.einsum("ijk,j,k->i", gauss.gamma0, aval, gauss.n_ind)


def _per_call_ii(gauss, wa, b_ind):
    """Reference: II(A, B) = -eps Tg(B, nabla-tilde_A N) from A's Weingarten vector and B's induced components."""
    return -gauss.eps * float(b_ind @ gauss.tg0 @ wa)


def _per_call_gauss(gauss, a, b, c):
    """Reference: R-bar(a, b)c from one triple, tan(R-tilde(A,B)C) - II(B,C) nabla-tilde_A N + II(A,C) nabla-tilde_B N."""
    a_ind, b_ind, c_ind = (_embed_induced(gauss.m, v) for v in (a, b, c))
    wa, wb = _per_call_weingarten(gauss, a_ind), _per_call_weingarten(gauss, b_ind)
    v = np.einsum("iabc,a,b,c->i", gauss.r_tilde, a_ind, b_ind, c_ind)
    return np.matvec(gauss._parts_maps[3], v - _per_call_ii(gauss, wb, c_ind) * wa + _per_call_ii(gauss, wa, c_ind) * wb)


CHARTS = ["space form", "bumpy", "no derivatives"]


class TestStackedGaussOracle:
    """Gamma-tilde on a whole stencil in one call, and R-bar as one parts-basis tensor per point."""

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("eps", [1, -1])
    def test_r_tilde_equals_fd_riemann_bit_for_bit(self, rng, chart, eps):
        m = _oracle_chart(chart)
        for _ in range(2):
            p = sample_sb_point(m, eps, rng)
            z0 = np.concatenate([p.x, p.u])
            assert np.array_equal(GaussOracle(m, p).r_tilde, fd_riemann(sasaki_gamma_fn(m), z0, _r_tilde_step(m)))

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_cold_context_equals_the_gamma_tilde_function_and_keeps_no_stencil_jet(self, rng, chart, eps):
        m = _oracle_chart(chart)
        p = sample_sb_point(m, eps, rng)
        z0 = np.concatenate([p.x, p.u])
        gauss = GaussOracle(m, p)
        kept = set(m._oracle_jets)
        r_tilde = gauss.r_tilde
        assert set(m._oracle_jets) - kept == {p.x.tobytes()}  # the jet at x enters the memo, the stencil's x-rows do not
        gamma_fn = sasaki_gamma_fn(m)
        assert np.array_equal(gauss.gamma0, gamma_fn(z0))
        assert np.array_equal(gauss.tg0, sasaki_metric_fn(m)(z0))
        assert np.array_equal(r_tilde, fd_riemann(gamma_fn, z0, stencil.FD_STEP_GAMMA))

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("eps", [1, -1])
    def test_rbar_matches_the_per_call_gauss_formula(self, rng, chart, eps):
        m = _oracle_chart(chart)
        p = sample_sb_point(m, eps, rng)
        gauss = GaussOracle(m, p)
        assert gauss.rbar.shape == (2 * m.dim,) * 4 and not gauss.rbar.flags.writeable
        for _ in range(6):
            a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
            ref = _per_call_gauss(gauss, a, b, cv)
            assert np.abs(gauss.curvature_rows(a.comps(), b.comps(), cv.comps()) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("eps", [1, -1])
    def test_second_fundamental_form_matches_the_per_call_formula(self, rng, chart, eps):
        m = _oracle_chart(chart)
        p = sample_sb_point(m, eps, rng)
        gauss = GaussOracle(m, p)
        ref_w = np.array([_per_call_weingarten(gauss, e) for e in np.eye(2 * m.dim)]).T
        assert np.abs(gauss.w - ref_w).max() <= 1e-14 * np.abs(ref_w).max()
        for _ in range(6):
            a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
            a_ind, b_ind = _embed_induced(m, a), _embed_induced(m, b)
            ref = _per_call_ii(gauss, _per_call_weingarten(gauss, a_ind), b_ind)
            scale = np.abs(gauss.tg0).max() * np.abs(gauss.w).max() * np.abs(a_ind).max() * np.abs(b_ind).max()
            assert abs(gauss.second_fundamental_form_rows(a.comps(), b.comps()) - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("chart", CHARTS)
    def test_r_tilde_takes_one_gamma_tilde_call_on_the_stencil(self, monkeypatch, rng, chart):
        m = _oracle_chart(chart)
        gauss = GaussOracle(m, sample_sb_point(m, -1, rng))
        shapes = []
        make, step = oracle.sasaki_gamma_fn, oracle._tg_gamma_tilde

        def counted_make(m):
            gamma_fn = make(m)

            def counted(z):
                shapes.append(np.shape(z))
                return gamma_fn(z)

            return counted

        def counted_step(z, *jet):
            shapes.append(np.shape(z))
            return step(z, *jet)

        # charts with analytic g', g'' take the Gamma-tilde step directly, the others sasaki_gamma_fn
        monkeypatch.setattr(oracle, "sasaki_gamma_fn", counted_make)
        monkeypatch.setattr(oracle, "_tg_gamma_tilde", counted_step)
        gauss.r_tilde
        # with analytic g', g'' the step also takes z0, as row 0, for Tg and Gamma-tilde there
        assert shapes == [(4 * m.dim + (0 if m.uses_fd_derivatives else 1), 2 * m.dim)]

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_r_tilde_first_and_gamma0_first_give_the_same_bits(self, rng, chart, eps):
        p = sample_sb_point(_oracle_chart(chart), eps, rng)
        contexts, jets = [], []
        for first in ("r_tilde", "gamma0"):
            m = _oracle_chart(chart)  # a fresh jet memo
            gauss = GaussOracle(m, p)
            getattr(gauss, first)
            jet = oracle.base_jet(m, p.x)  # row 0 of R-tilde's jet step, or the jet Gamma-tilde(z0) was read from
            gauss.r_tilde
            assert oracle.base_jet(m, p.x) is jet
            contexts.append(gauss)
            jets.append(jet)
        for name in ("tg0", "gamma0", "r_tilde"):
            assert np.array_equal(getattr(contexts[0], name), getattr(contexts[1], name)), name
        for name in ("x", "g", "dg", "ginv", "gamma", "dgamma"):
            assert np.array_equal(getattr(jets[0], name), getattr(jets[1], name)), name
            assert not getattr(jets[0], name).flags.writeable

    def test_curvature_calls_read_no_jet_and_no_gamma_tilde(self, monkeypatch, rng):
        m = bumpy_chart(3, 1)
        p = sample_sb_point(m, -1, rng)
        triples = [tuple(sample_sb_vec(m, p, rng) for _ in range(3)) for _ in range(4)]
        gauss_curvature_oracle(m, p, *triples[0])  # builds R-tilde and R-bar
        calls = []

        def counted(name):
            real = getattr(oracle, name)

            def wrapped(*args):
                calls.append(name)
                return real(*args)

            return wrapped

        for name in ("base_gamma", "base_jet", "sasaki_gamma_fn"):
            monkeypatch.setattr(oracle, name, counted(name))
        for a, b, cv in triples:
            gauss_curvature_oracle(m, p, a, b, cv)
        assert calls == []


class TestPartsMaps:
    """E and F of ``GaussOracle._parts_maps`` against the einsum formulas they replaced, to 1e-15 relative."""

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("eps", [1, -1])
    def test_e_and_f_are_the_einsum_maps(self, rng, chart, eps):
        m = _oracle_chart(chart)
        n = m.dim
        for _ in range(3):
            p = sample_sb_point(m, eps, rng)
            jet, f = oracle.base_jet(m, p.x), gauss_oracle(m, p)._parts_maps[3]
            for parts, w in zip(sample_sb_parts(m, p, rng, 6), rng.normal(size=(6, 2 * n))):
                # (X; W - Gamma(X, u)), the parts to induced components
                ref = np.concatenate([parts[:n], parts[n:] - np.einsum("iab,a,b->i", jet.gamma, parts[:n], p.u)])
                assert np.abs(oracle._embed_induced_rows(m, p, parts) - ref).max() <= 1e-15 * np.abs(ref).max()
                # (X; V - eps g(V, u) u) with V = W + Gamma(X, u), the induced components to parts
                v = w[n:] + np.einsum("iab,a,b->i", jet.gamma, w[:n], p.u)
                ref = np.concatenate([w[:n], v - p.eps * float(v @ jet.g @ p.u) * p.u])
                assert np.abs(np.matvec(f, w) - ref).max() <= 1e-15 * np.abs(ref).max()


def _per_pair_nabla(m, p, xc, yc, kx, ky):
    """Reference: nabla-bar_A B for one lift pair, from the ambient derivative with B's exact Jacobian."""
    z0 = np.concatenate([p.x, p.u])
    aval = sb_lift_field_fn(m, xc, kx, p.eps)(z0)
    b_jet = sb_lift_field_fn(m, yc, ky, p.eps)(z0), const_lift_jacobian_fn(m, yc, ky, p.eps)(z0)
    nab = ambient_nabla(aval, b_jet, sasaki_gamma_fn(m)(z0))
    return np.matvec(gauss_oracle(m, p)._parts_maps[3], nab)


def _parent_fd_nabla(m, p, xfield, yfield, kx, ky):
    """Reference: nabla-bar_A B with B's Jacobian central-differenced, the path the array does not serve."""
    gauss = gauss_oracle(m, p)
    aval = sb_lift_field_fn(m, xfield, kx, p.eps)(gauss.z0)
    nab = ambient_nabla(aval, field_jet(sb_lift_field_fn(m, yfield, ky, p.eps), gauss.z0), gauss.gamma0)
    return np.matvec(gauss._parts_maps[3], nab)


class TestOracleNablaArray:
    """nabla-bar of the constant-vector lift fields as one parts-basis array per point (``GaussOracle.nabla``)."""

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_array_equals_the_per_pair_path(self, rng, chart, n, eps):
        m = space_form_chart(SpaceFormSpec(n, 1, 2.0)) if chart == "space form" else bumpy_chart(n, 1)
        for _ in range(2):
            p = sample_sb_point(m, eps, rng)
            for kx, ky in LIFT_PAIRS:
                xc, yc = rng.normal(size=n), rng.normal(size=n)
                ref = _per_pair_nabla(m, p, xc, yc, kx, ky)
                got = sb_nabla_via_ambient(m, xc, yc, kx, ky, p).comps()
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (kx, ky)

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_exact_lift_jacobians_match_the_stencil(self, rng, chart):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1)
        for eps in (1, -1):
            p = sample_sb_point(m, eps, rng)
            z0 = np.concatenate([p.x, p.u])
            for kind in ("h", "t"):
                w = rng.normal(size=3)
                exact = const_lift_jacobian_fn(m, w, kind, eps)(z0)
                _, fd = oracle.field_jet(sb_lift_field_fn(m, w, kind, eps), z0)
                assert np.abs(exact - fd).max() <= 1e-8 * max(1.0, np.abs(exact).max()), kind

    def test_the_array_is_read_only_and_absent_without_analytic_derivatives(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        gauss = GaussOracle(m, sample_sb_point(m, -1, rng))
        assert gauss.nabla.shape == (6, 6, 6) and not gauss.nabla.flags.writeable
        with pytest.raises(ValueError):
            gauss.nabla[0, 0, 0] = 1.0
        no_derivatives = replace(m, deriv1_fn=None, deriv2_fn=None)
        assert GaussOracle(no_derivatives, sample_sb_point(no_derivatives, 1, rng)).nabla is None

    @pytest.mark.parametrize("chart", ["space form", "bumpy", "no derivatives"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_the_fd_path_is_unchanged(self, rng, chart, eps):
        # a callable yfield, or any yfield on a chart without analytic derivatives, differences B's components
        m = _oracle_chart(chart)
        p = sample_sb_point(m, eps, rng)
        for kx, ky in LIFT_PAIRS:
            xc, yc = rng.normal(size=3), rng.normal(size=3)
            xfield = lambda x, xc=xc: xc + 0.1 * np.sin(x)
            yfields = [lambda x, yc=yc: yc + 0.1 * x**2] + ([yc] if chart == "no derivatives" else [])
            for yfield in yfields:
                ref = _parent_fd_nabla(m, p, xfield, yfield, kx, ky)
                assert np.array_equal(sb_nabla_via_ambient(m, xfield, yfield, kx, ky, p).comps(), ref)

    def test_a_callable_xfield_reads_its_value_at_p(self, rng):
        m = bumpy_chart(3, 1)
        p = sample_sb_point(m, 1, rng)
        xc, yc = rng.normal(size=3), rng.normal(size=3)
        xfield = lambda x: xc + x  # only its value at p enters
        for kx, ky in LIFT_PAIRS:
            got = sb_nabla_via_ambient(m, xfield, yc, kx, ky, p).comps()
            assert np.array_equal(got, sb_nabla_via_ambient(m, xc + p.x, yc, kx, ky, p).comps())

    def test_an_unknown_kind_is_refused(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        p = sample_sb_point(m, 1, rng)
        for kx, ky in (("v", "h"), ("h", "v")):
            with pytest.raises(ValueError):
                sb_nabla_via_ambient(m, rng.normal(size=3), rng.normal(size=3), kx, ky, p)

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_the_array_reads_only_the_base_jet_and_gamma_tilde(self, monkeypatch, rng, chart):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1)
        p = sample_sb_point(m, -1, rng)
        gauss = gauss_oracle(m, p)
        gauss.gamma0  # Gamma-tilde(z0) is built on first use, here before the patches
        pairs = [(rng.normal(size=3), rng.normal(size=3), kx, ky) for kx, ky in LIFT_PAIRS]
        calls = []

        def forbidden(*args, **kwargs):
            raise AssertionError("the array read the closed-form geometry or a lift field")

        for fn in (manifold.riemann_at, manifold.christoffel_at, manifold.metric_at, sphere.point_geometry):
            patch_everywhere(monkeypatch, fn, forbidden)
        for name in ("sasaki_gamma_fn", "sasaki_metric_fn", "sb_lift_field_fn", "base_gamma", "ambient_nabla"):
            monkeypatch.setattr(oracle, name, forbidden)
        real_jet = oracle.base_jet
        monkeypatch.setattr(oracle, "base_jet", lambda m, x: calls.append(x) or real_jet(m, x))
        for xc, yc, kx, ky in pairs:
            sb_nabla_via_ambient(m, xc, yc, kx, ky, p)
        assert gauss.nabla is not None and all(x is p.x for x in calls) and len(calls) == 2  # F, then the array


def _counted(fn, reads):
    def wrapped(x):
        reads.append(np.asarray(x, dtype=float).tobytes())
        return fn(x)

    return wrapped


class TestBaseJet:
    """The raw jet each chart keeps for its latest base points (``oracle.base_jet``)."""

    @staticmethod
    def _stencil_xs(m, z0):
        """z0's base point and the base points of one central-difference stencil around z0."""
        n = m.dim
        xs = [z0[:n]]
        for k in range(n):
            e = np.zeros(2 * n)
            e[k] = FD_STEP_FIRST
            xs += [(z0 + e)[:n], (z0 - e)[:n]]
        return xs

    @pytest.mark.parametrize("chart", ["space form", "bumpy", "no derivatives"])
    def test_values_equal_a_fresh_chart_bit_for_bit(self, rng, chart):
        if chart == "bumpy":
            m, fresh = bumpy_chart(3, 1), bumpy_chart(3, 1)
        else:
            spec = SpaceFormSpec(3, 1, 2.0)
            m, fresh = space_form_chart(spec), space_form_chart(spec)
            if chart == "no derivatives":
                m, fresh = (replace(c, deriv1_fn=None, deriv2_fn=None) for c in (m, fresh))
        p = sample_sb_point(m, -1, rng)
        z0 = np.concatenate([p.x, p.u])
        xc, yc = rng.normal(size=3), rng.normal(size=3)
        # warm the chart's jets through the oracle paths that read them
        fd_lie_bracket(lift_field_fn(m, xc, "h"), sb_lift_field_fn(m, yc, "t", -1), z0)
        sasaki_gamma_fn(m)(z0)
        for x in self._stencil_xs(m, z0):
            jet, ref = oracle.base_jet(m, x), oracle.base_jet(fresh, x)
            for name in ("g", "dg", "gamma", "dgamma"):
                a, b = getattr(jet, name), getattr(ref, name)
                assert (a is None and b is None) or np.array_equal(a, b)
            # the Koszul step as the oracle took it before it kept jets
            dg = m.deriv1_fn(x) if m.deriv1_fn is not None else oracle.partials(m.metric_fn, x, FD_STEP_FIRST)
            assert np.array_equal(jet.gamma, oracle._koszul(m.metric_fn(x), dg))
            assert (jet.dgamma is None) == (chart == "no derivatives")

    def test_charts_at_one_x_never_share_a_jet(self):
        x = np.array([0.3, -0.2])
        for i in range(40):
            c = (1.0, -1.0, 2.0)[i % 3]
            m = space_form_chart(SpaceFormSpec(2, 0, c))
            expected = oracle._koszul(m.metric_fn(x), m.deriv1_fn(x))
            assert np.array_equal(oracle.base_gamma(m, x), expected)
            assert np.array_equal(oracle.base_jet(m, x).g, m.metric_fn(x))
            del m
            gc.collect()  # so the next chart may take this one's id
        # a memo keyed by id(chart) would have served a reused id a jet of another c

    def test_reassigned_metric_callables_are_seen(self):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        x = np.array([0.1, 0.2])
        before = oracle.base_jet(m, x)
        metric, deriv1 = m.metric_fn, m.deriv1_fn
        m.metric_fn = lambda y: 2.0 * metric(y)
        assert np.array_equal(oracle.base_jet(m, x).g, 2.0 * before.g)
        m.deriv1_fn = lambda y: 2.0 * deriv1(y)
        assert np.array_equal(oracle.base_jet(m, x).dg, 2.0 * before.dg)
        deriv2, dgamma = m.deriv2_fn, oracle.base_jet(m, x).dgamma
        m.deriv2_fn = lambda y: 2.0 * deriv2(y)
        assert not np.array_equal(oracle.base_jet(m, x).dgamma, dgamma)
        m.metric_fn = lambda y: np.full((2, 2), np.nan)
        assert np.isnan(oracle.base_gamma(m, x)).all()
        assert np.isnan(sasaki_metric_fn(m)(np.concatenate([x, [0.5, 0.5]]))).all()

    def test_memo_stays_within_its_bound(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        reads = []
        m.metric_fn = _counted(m.metric_fn, reads)
        xs = [rng.uniform(-0.5, 0.5, size=2) for _ in range(3 * manifold.JET_MEMO_SIZE)]
        for x in xs:
            oracle.base_jet(m, x)
            assert len(m._oracle_jets) <= manifold.JET_MEMO_SIZE
        assert len(m._oracle_jets) == manifold.JET_MEMO_SIZE
        # the least recently used goes first
        size, built = manifold.JET_MEMO_SIZE, len(reads)
        oracle.base_jet(m, xs[-size])  # the oldest kept, now the most recently used
        assert len(reads) == built
        oracle.base_jet(m, np.array([0.45, 0.45]))  # drops xs[-size + 1]
        oracle.base_jet(m, xs[-size])
        assert len(reads) == built + 1
        oracle.base_jet(m, xs[-size + 1])
        assert len(reads) == built + 2

    def test_arrays_are_read_only(self, flat2):
        x = np.array([0.1, 0.2])
        jet = oracle.base_jet(flat2, x)
        for a in (jet.g, jet.dg, jet.gamma, jet.dgamma, oracle.base_gamma(flat2, x)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1.0
        assert flat2.metric_fn(x).flags.writeable  # the chart's own constant is not frozen

    @pytest.mark.parametrize("n", [2, 3])
    def test_lie_bracket_reads_the_metric_once_per_base_point(self, rng, n):
        m = space_form_chart(SpaceFormSpec(n, 0, 1.0))
        reads = {"metric": [], "deriv1": [], "deriv2": []}
        m.metric_fn = _counted(m.metric_fn, reads["metric"])
        m.deriv1_fn = _counted(m.deriv1_fn, reads["deriv1"])
        m.deriv2_fn = _counted(m.deriv2_fn, reads["deriv2"])
        p = sample_sb_point(m, 1, rng)
        for seen in reads.values():
            seen.clear()
        z0 = np.concatenate([p.x, p.u])
        fd_lie_bracket(lift_field_fn(m, rng.normal(size=n), "h"), lift_field_fn(m, rng.normal(size=n), "h"), z0)
        # 2 + 2 (4n) evaluations; both Jacobians step through z0's x and the 2n base points x0 +- h e_k
        distinct = {x.tobytes() for x in self._stencil_xs(m, z0)}
        assert len(distinct) == 2 * n + 1
        assert sorted(reads["metric"]) == sorted(reads["deriv1"]) == sorted(distinct)
        assert reads["deriv2"] == []  # h-lift values need no d Gamma


class TestStackedJets:
    """The base jets of R-tilde's stencil rows are built in one batch."""

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_a_fresh_r_tilde_stencil_inverts_the_base_metrics_once(self, monkeypatch, rng, chart):
        m = _oracle_chart(chart)
        n = m.dim
        gauss = GaussOracle(m, sample_sb_point(m, -1, rng))
        shapes = []
        real = oracle._inv

        def counted(g):
            shapes.append(np.shape(g))
            return real(g)

        monkeypatch.setattr(oracle, "_inv", counted)
        gauss.r_tilde
        # one inversion of the base metrics at x and its 2n x-rows, then the one of the stacked Tg at z0 and its stencil
        assert shapes == [(2 * n + 1, n, n), (4 * n + 1, 2 * n, 2 * n)]
        z_rows = stencil.points(gauss.z0, stencil.FD_STEP_GAMMA)
        for x in {row[:n].tobytes(): row[:n] for row in z_rows}.values():
            jet, ref = oracle.base_jet(m, x), oracle.read_jets(replace(m), [x])[0]
            for name in ("g", "dg", "ginv", "gamma", "dgamma"):
                assert np.array_equal(getattr(jet, name), getattr(ref, name))

    @staticmethod
    def _two_charts(chart, n):
        """Two equal charts of one kind: a jet of the first is compared with a fresh jet of the second."""

        def make():
            if chart == "bumpy":
                return bumpy_chart(n, 1)
            m = space_form_chart(SpaceFormSpec(n, 1, 2.0))
            return replace(m, deriv1_fn=None, deriv2_fn=None) if chart == "no derivatives" else m

        return make(), make()

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_a_cold_stencil_read_is_one_stacked_step(self, monkeypatch, rng, chart, n, eps):
        m, fresh = self._two_charts(chart, n)
        p = sample_sb_point(m, eps, rng)
        z0 = np.concatenate([p.x, p.u])
        reads = {"metric": [], "deriv1": [], "deriv2": []}
        m.metric_fn = _counted(m.metric_fn, reads["metric"])
        if chart != "no derivatives":
            m.deriv1_fn = _counted(m.deriv1_fn, reads["deriv1"])
            m.deriv2_fn = _counted(m.deriv2_fn, reads["deriv2"])
        shapes = []
        real = oracle._inv
        monkeypatch.setattr(oracle, "_inv", lambda g: shapes.append(np.shape(g)) or real(g))
        oracle.read_stencil_jets(m, z0)
        assert shapes == [(2 * n + 1, n, n)]
        distinct = {x.tobytes() for x in TestBaseJet._stencil_xs(m, z0)}
        assert len(distinct) == 2 * n + 1 and set(m._oracle_jets) == distinct
        if chart == "no derivatives":
            # g' by central differences: g at each base point, then at its 2n stencil rows
            assert distinct <= set(reads["metric"]) and len(reads["metric"]) == (2 * n + 1) ** 2
        else:
            assert sorted(reads["metric"]) == sorted(reads["deriv1"]) == sorted(distinct)
        assert reads["deriv2"] == []  # d Gamma stays lazy
        oracle.read_stencil_jets(m, z0)
        assert len(shapes) == 1  # a warm stencil reads nothing
        for key in distinct:
            jet = m._oracle_jets[key][1]
            ref = oracle.base_jet(fresh, jet.x)
            for name in ("x", "g", "dg", "ginv", "gamma", "dgamma"):
                a, b = getattr(jet, name), getattr(ref, name)
                if chart == "no derivatives" and name == "dgamma":
                    assert a is None and b is None
                    continue
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
                assert not a.flags.writeable, name

    @pytest.mark.parametrize("operator", ["d_eta_tensor", "killing_residual", "sasakian", "nabla_endomorphism"])
    def test_per_point_fd_operators_read_their_stencil_in_one_step(self, monkeypatch, rng, operator):
        m = bumpy_chart(3, 1)
        p = sample_sb_point(m, -1, rng)
        rows = []
        real = oracle._jet_arrays
        monkeypatch.setattr(oracle, "_jet_arrays", lambda m, xs: rows.append(len(xs)) or real(m, xs))
        if operator == "d_eta_tensor":
            d_eta_tensor(m, p)
        elif operator == "killing_residual":
            contact.killing_residual(m, p)
        elif operator == "sasakian":
            contact.sasakian_residual(m, p, rng, num_samples=4)
        else:
            gauss_oracle(m, p).nabla_endomorphism(phi_matrix_fn(m, -1))
        assert rows == [2 * m.dim + 1]  # every jet the stencil reads comes from that one step

    @pytest.mark.parametrize("n", [8, 10])
    def test_a_stencil_and_a_lift_field_jet_make_one_step_past_n_7(self, monkeypatch, rng, n):
        m = space_form_chart(SpaceFormSpec(n, 1, 2.0))
        p = sample_sb_point(m, 1, rng)
        z0 = np.concatenate([p.x, p.u])
        rows = []
        real = oracle._jet_arrays
        monkeypatch.setattr(oracle, "_jet_arrays", lambda m, xs: rows.append(len(xs)) or real(m, xs))
        oracle.read_stencil_jets(m, z0)
        field_jet(lift_field_fn(m, rng.normal(size=n), "h"), z0)  # the jet at x and at each of the 2n rows, row by row
        assert rows == [2 * n + 1]
        assert len(m._oracle_jets) == manifold._memo_size(m) == 2 * n + 1

    def test_the_memo_keeps_16_base_points_up_to_n_7(self):
        for n in range(2, 8):
            assert manifold._memo_size(space_form_chart(SpaceFormSpec(n, 0, 1.0))) == manifold.JET_MEMO_SIZE == 16
        assert manifold._memo_size(space_form_chart(SpaceFormSpec(8, 0, 1.0))) == 17

    @pytest.mark.parametrize("eps", [1, -1])
    def test_a_connection_point_reads_its_base_points_in_one_step(self, monkeypatch, eps):
        from sasakigeo.suites import SuiteConfig, run_suite

        rows = []
        real = oracle._jet_arrays
        monkeypatch.setattr(oracle, "_jet_arrays", lambda m, xs: rows.append(len(xs)) or real(m, xs))
        run_suite(SuiteConfig("connection", n=3, nu=1, eps=eps, num_points=1))
        assert rows == [3]  # x and x +- h X(x), where the FD rows along A = X^h step


class TestStackedFields:
    """The jet-only fields on one stencil's stacked rows, and the tensors differenced from them."""

    @staticmethod
    def _chart(chart, n):
        if chart == "bumpy":
            return bumpy_chart(n, 1)
        m = space_form_chart(SpaceFormSpec(n, 1, 2.0))
        return replace(m, deriv1_fn=None, deriv2_fn=None) if chart == "no derivatives" else m

    @staticmethod
    def _fields(m, eps):
        return {
            "Tg": sasaki_metric_fn(m),
            "xi": geodesic_flow_field_fn(m),
            "eta": contact.eta_form_fn(m, eps),
            "phi": phi_matrix_fn(m, eps),
        }

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_stacked_tensors_equal_the_per_row_operators_bit_for_bit(self, rng, chart, n, eps):
        m = self._chart(chart, n)
        p = sample_sb_point(m, eps, rng)
        z0 = np.concatenate([p.x, p.u])
        jets = oracle.read_stencil_jets(m, z0)
        assert jets.z.shape == (4 * n + 1, 2 * n)
        fresh = replace(m)  # keeps no jets: every per-row call below reads its own
        stacked, per_row = self._fields(m, eps), self._fields(fresh, eps)
        for name, field in stacked.items():
            values = field(jets.z, jets)
            assert values.shape[0] == 4 * n + 1
            for row, value in zip(jets.z, values):
                assert np.array_equal(value, per_row[name](row)), name
            value, d = jets.derivative(field)
            assert np.array_equal(value, per_row[name](z0)), name
            assert np.array_equal(d, oracle.partials(per_row[name], z0, FD_STEP_FIRST)), name

        assert np.array_equal(d_eta_tensor(m, p), fd_exterior_derivative(per_row["eta"], z0))
        assert np.array_equal(contact.nijenhuis_tensor(m, p), fd_nijenhuis(per_row["phi"], z0))
        j = hypersurface_pullback(fresh, p).jacobian
        lie = fd_lie_derivative_metric(per_row["xi"], per_row["Tg"], z0)
        assert contact.killing_residual(m, p) == float(np.abs(0.25 * (j.T @ lie @ j)).max())

        # nabla-tilde Phi: the one formula on Phi(z0) and its per-row partials
        gauss = GaussOracle(m, p)
        nabla = oracle._nabla_tilde_endomorphism(
            per_row["phi"](z0), oracle.partials(per_row["phi"], z0, FD_STEP_FIRST), gauss.gamma0
        )
        _, _, e, f = gauss._parts_maps
        nabla_phi = gauss.nabla_endomorphism(stacked["phi"])
        for ka, kb in LIFT_PAIRS:
            a, b = sphere.lift(m, p, ka, rng.normal(size=n)), sphere.lift(m, p, kb, rng.normal(size=n))
            expected = f @ ((nabla @ (e @ b.comps())) @ (e @ a.comps()))
            assert np.array_equal(nabla_phi(a.comps(), b.comps()), expected)

    @pytest.mark.parametrize("operator", ["d_eta_tensor", "nijenhuis_tensor", "killing_residual", "sasakian", "nabla_endomorphism"])
    def test_each_tensor_evaluates_its_fields_once_per_stencil(self, monkeypatch, rng, operator):
        m = bumpy_chart(3, 1)
        n = m.dim
        p = sample_sb_point(m, -1, rng)
        shapes = {}

        def tracked(name, make):
            def factory(*args):
                field = make(*args)
                return lambda z, jets=None: shapes.setdefault(name, []).append(np.shape(z)) or field(z, jets)

            return factory

        for name in ("phi_matrix_fn", "eta_form_fn", "geodesic_flow_field_fn", "sasaki_metric_fn"):
            monkeypatch.setattr(contact, name, tracked(name, getattr(contact, name)))
        reads = []
        for name in ("base_jet", "base_gamma"):  # every jet field reads its one-z jet through oracle.base_jet
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda m, x, real=real: reads.append(np.asarray(x).tobytes()) or real(m, x))
        stack = (4 * n + 1, 2 * n)
        if operator == "d_eta_tensor":
            d_eta_tensor(m, p)
            expected = {"eta_form_fn": [stack]}
        elif operator == "nijenhuis_tensor":
            contact.nijenhuis_tensor(m, p)
            expected = {"phi_matrix_fn": [stack]}
        elif operator == "killing_residual":
            contact.killing_residual(m, p)
            expected = {"geodesic_flow_field_fn": [stack], "sasaki_metric_fn": [stack]}
        elif operator == "sasakian":
            contact.sasakian_residual(m, p, rng, num_samples=4)
            # xi's value at p contracts the rows; it is not differenced
            expected = {"phi_matrix_fn": [stack], "eta_form_fn": [stack], "geodesic_flow_field_fn": [(2 * n,)]}
        else:
            gauss_oracle(m, p).nabla_endomorphism(contact.phi_matrix_fn(m, -1))
            expected = {"phi_matrix_fn": [stack]}
        assert shapes == expected
        # the jets of the stencil rows come from its one read: any jet read one by one is the one at p's x
        assert set(reads) <= {p.x.tobytes()}

    def test_the_tensors_at_a_point_share_its_one_stencil_until_the_chart_changes(self, monkeypatch, rng):
        m = bumpy_chart(3, 1)
        p = sample_sb_point(m, -1, rng)
        built = []
        real = oracle.StencilJets
        monkeypatch.setattr(oracle, "StencilJets", lambda *args: built.append(args) or real(*args))
        deta = d_eta_tensor(m, p)
        contact.nijenhuis_tensor(m, p)
        contact.killing_residual(m, p)
        contact.sasakian_residual(m, p, rng, num_samples=4)
        gauss_oracle(m, p).nabla_endomorphism(phi_matrix_fn(m, -1))
        sb_nabla_via_ambient(m, rng.normal(size=3), lambda x: np.sin(x), "h", "t", p)
        assert len(built) == 1

        # reassigned callables drop the kept context, and its stencil with it
        other = bumpy_chart(3, 1, seed=1)
        m.metric_fn, m.deriv1_fn, m.deriv2_fn = other.metric_fn, other.deriv1_fn, other.deriv2_fn
        fresh = d_eta_tensor(m, p)
        assert len(built) == 2 and not np.array_equal(fresh, deta)
        assert np.array_equal(fresh, d_eta_tensor(other, p))

    @pytest.mark.parametrize("chart", CHARTS)
    @pytest.mark.parametrize("eps", [1, -1])
    def test_killing_residual_evaluates_tg_only_on_its_stencil(self, monkeypatch, rng, chart, eps):
        m = self._chart(chart, 3)
        p = sample_sb_point(m, eps, rng)
        shapes = []
        real = oracle._sasaki_blocks  # every Tg of the oracle, at one z or on stacked rows
        monkeypatch.setattr(oracle, "_sasaki_blocks", lambda g, c: shapes.append(np.shape(g)) or real(g, c))
        contact.killing_residual(m, p)
        assert shapes == [(4 * m.dim + 1, m.dim, m.dim)]
        # the pullback metric, which the residual does not read, is built on first use, as before
        chart_p = hypersurface_pullback(m, p)
        assert len(shapes) == 1
        tg = sasaki_metric_fn(m)(np.concatenate([p.x, p.u]))
        assert np.array_equal(chart_p.pullback_metric, chart_p.jacobian.T @ tg @ chart_p.jacobian)
        assert chart_p.pullback_metric is chart_p.pullback_metric


def test_base_jet_inverts_g_once(monkeypatch, rng):
    m = bumpy_chart(3, 1)
    x = sample_sb_point(m, 1, rng).x
    inversions = []
    real = oracle._inv

    def counted(g):
        inversions.append(1)
        return real(g)

    monkeypatch.setattr(oracle, "_inv", counted)
    jet = oracle.base_jet(m, x)  # a miss on a fresh chart
    assert jet.dgamma is not None and len(inversions) == 1
    assert np.array_equal(jet.gamma, oracle._koszul(m.metric_fn(x), m.deriv1_fn(x)))


class TestFdChartTgJets:
    """On a chart without analytic g' and g'', Gamma-tilde differences Tg on each z's stacked stencil rows."""

    def test_a_cold_r_tilde_reads_its_jets_in_eight_steps_and_keeps_its_bits(self, monkeypatch):
        spec = SpaceFormSpec(3, 1, 2.0)
        p = sample_sb_point(space_form_chart(spec), 1, np.random.default_rng(5))
        z0 = np.concatenate([p.x, p.u])

        # the reference, on a chart of its own: Gamma-tilde from the per-row partials of the one-z Tg field
        tg_fn = sasaki_metric_fn(replace(space_form_chart(spec), deriv1_fn=None, deriv2_fn=None))

        def gamma_tilde(z):
            return oracle._koszul(tg_fn(z), stencil.partials(tg_fn, z, FD_STEP_FIRST))

        at_rows = stencil.rows(gamma_tilde, stencil.points(z0, stencil.FD_STEP_SECOND))
        ref = oracle._riemann(gamma_tilde(z0), stencil.quotient(at_rows, stencil.FD_STEP_SECOND))

        m = replace(space_form_chart(spec), deriv1_fn=None, deriv2_fn=None)
        steps, real = [], oracle._jet_arrays
        monkeypatch.setattr(oracle, "_jet_arrays", lambda m, xs: steps.append(len(xs)) or real(m, xs))
        assert GaussOracle(m, p).r_tilde.tobytes() == ref.tobytes()
        # z0 and the 2n rows of the second-derivative stencil each read their stencil's missing base
        # points in one step; the rows that move only u share x's jets (56 one-row steps before)
        assert len(steps) == 8
