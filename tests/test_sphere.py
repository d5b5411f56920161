"""Sphere bundle: normal, tangential lifts, frames, brackets, connection, curvature."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sasakigeo import contact, manifold, suites
from sasakigeo.contact import contact_data_at, h_at, nabla_phi, nabla_xi, psi_u_matrix
from sasakigeo.errors import PointMismatch
from sasakigeo.manifold import (
    RiemannTensor,
    SpaceFormSpec,
    metric_at,
    nabla_riemann_full,
    riemann_at,
    space_form_chart,
)
from sasakigeo.oracle import (
    fd_lie_bracket,
    gauss_curvature_oracle,
    sb_lift_field_fn,
    sb_nabla_via_ambient,
    _embed_induced,
)
from sasakigeo.sampling import sample_sb_point, sample_sb_vec
from sasakigeo.sphere import (
    SBPoint,
    SBVec,
    frame_at,
    frame_gram,
    horizontal_sb,
    induced_metric_at,
    lift,
    normal_at,
    point_geometry,
    sb_bracket,
    sb_curvature,
    sb_nabla,
    sb_point,
    tangential_lift,
)
from sasakigeo.tangent import base_geometry, sasaki_metric_at, vertical_lift, horizontal_lift
from sasakigeo.manifold import TangentVec

from conftest import bumpy_chart, flat_chart, patch_everywhere


class TestSBPoint:
    def test_constraint_validated(self, flat2):
        with pytest.raises(ValueError):
            sb_point(flat2, np.zeros(2), np.array([2.0, 0.0]), 1)

    def test_eps_minus_needs_index(self, flat2):
        with pytest.raises(ValueError):
            sb_point(flat2, np.zeros(2), np.array([1.0, 0.0]), -1)

    @pytest.mark.parametrize(
        "x,u",
        [
            ([0.0, 0.0], [np.nan, np.nan]),
            ([0.0, 0.0], [np.inf, 0.0]),
            ([np.nan, 0.0], [1.0, 0.0]),  # flat2 accepts every x, so only sb_point can refuse it
        ],
    )
    def test_non_finite_point_rejected(self, flat2, x, u):
        with pytest.raises(ValueError):
            sb_point(flat2, np.array(x), np.array(u), 1)


class TestPointGuard:
    def test_equal_coordinates_at_distinct_points_add(self, flat2):
        p = sb_point(flat2, np.array([0.1, 0.2]), np.array([0.6, 0.8]), 1)
        q = sb_point(flat2, p.x.copy(), p.u.copy(), 1)
        assert p is not q
        total = horizontal_sb(p, np.ones(2)) + horizontal_sb(q, np.ones(2))
        assert np.array_equal(total.hpart, [2.0, 2.0])

    @pytest.mark.parametrize("dx,u", [([0.1, 0.0], [0.6, 0.8]), ([0.0, 0.0], [0.8, 0.6])])
    def test_different_coordinates_raise(self, flat2, dx, u):
        p = sb_point(flat2, np.array([0.1, 0.2]), np.array([0.6, 0.8]), 1)
        q = sb_point(flat2, p.x + np.array(dx), np.array(u), 1)
        with pytest.raises(PointMismatch):
            horizontal_sb(p, np.ones(2)) + horizontal_sb(q, np.ones(2))

    def test_different_fiber_sign_raises(self, flat2):
        p = sb_point(flat2, np.zeros(2), np.array([0.6, 0.8]), 1)
        q = SBPoint(p.x, p.u, -1)  # same coordinates, other sign (unvalidated on purpose)
        with pytest.raises(PointMismatch):
            horizontal_sb(p, np.ones(2)) + horizontal_sb(q, np.ones(2))

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, p, v: sb_curvature(m, p, v, v, v),
            lambda m, p, v: induced_metric_at(m, p, v, v),
            lambda m, p, v: nabla_phi(m, p, v, v),
            lambda m, p, v: nabla_xi(m, p, v),
            lambda m, p, v: h_at(m, p).apply(v),
            lambda m, p, v: contact_data_at(m, p).eta(v),
            lambda m, p, v: contact_data_at(m, p).phi(v),
        ],
        ids=["sb_curvature", "induced_metric_at", "nabla_phi", "nabla_xi", "h_at.apply", "eta", "phi"],
    )
    def test_vectors_from_another_point_raise(self, rng, call):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        p, q = sample_sb_point(m, 1, rng), sample_sb_point(m, 1, rng)
        v = sample_sb_vec(m, q, rng)
        call(m, q, v)  # at its own point it is accepted
        with pytest.raises(PointMismatch):
            call(m, p, v)


class TestLiftKinds:
    @pytest.mark.parametrize("fn", [sb_nabla, sb_bracket])
    @pytest.mark.parametrize("kinds", [("", "h"), ("t", ""), ("ht", "t"), ("h", "th"), ("v", "h")])
    def test_only_h_and_t_are_accepted(self, flat2, rng, fn, kinds):
        p = sample_sb_point(flat2, 1, rng)
        with pytest.raises(ValueError):
            fn(flat2, np.ones(2), np.ones(2), *kinds, p)


class TestNormal:
    @pytest.mark.parametrize("nu,eps", [(0, 1), (1, -1), (1, 1)])
    def test_unit_and_orthogonal(self, rng, nu, eps):
        m = space_form_chart(SpaceFormSpec(3, nu, 1.0))
        p = sample_sb_point(m, eps, rng)
        n_vec = normal_at(m, p)
        at = p.tm
        assert sasaki_metric_at(m, at, n_vec, n_vec) == pytest.approx(eps, abs=1e-12)
        xv = TangentVec(p.x, rng.normal(size=3))
        assert sasaki_metric_at(m, at, n_vec, horizontal_lift(m, xv, at)) == 0.0
        tl = tangential_lift(m, p, xv.comps)
        emb = vertical_lift(m, TangentVec(p.x, tl.tpart), at)
        assert sasaki_metric_at(m, at, n_vec, emb) == pytest.approx(0.0, abs=1e-10)


class TestTangentialLift:
    def test_u_lifts_to_zero(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p = sample_sb_point(m, 1, rng)
        assert np.abs(tangential_lift(m, p, p.u).tpart).max() < 1e-12

    def test_orthogonal_vector_unchanged(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p = sample_sb_point(m, 1, rng)
        g = metric_at(m, p.x)
        w = rng.normal(size=2)
        w = w - float(w @ g @ p.u) * p.u  # eps = +1
        assert np.abs(tangential_lift(m, p, w).tpart - w).max() < 1e-12

    @pytest.mark.parametrize("nu,eps", [(0, 1), (1, -1)])
    def test_metric_identity(self, rng, nu, eps):
        # gbar(X^t, Y^t) = g(X, Y) - eps g(X,u) g(Y,u)
        m = space_form_chart(SpaceFormSpec(3, nu, -1.0))
        p = sample_sb_point(m, eps, rng)
        g = metric_at(m, p.x)
        for _ in range(10):
            xc, yc = rng.normal(size=3), rng.normal(size=3)
            lhs = induced_metric_at(m, p, tangential_lift(m, p, xc), tangential_lift(m, p, yc))
            rhs = float(xc @ g @ yc) - eps * float(xc @ g @ p.u) * float(yc @ g @ p.u)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLift:
    def test_kinds(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        p = sample_sb_point(m, -1, rng)
        w = rng.normal(size=3)
        assert np.array_equal(lift(m, p, "h", w).comps(), horizontal_sb(p, w).comps())
        assert np.array_equal(lift(m, p, "t", w).comps(), tangential_lift(m, p, w).comps())

    @pytest.mark.parametrize("kind", ["v", "", "ht"])
    def test_other_kinds_rejected(self, flat2, kind):
        p = sb_point(flat2, np.zeros(2), np.array([0.6, 0.8]), 1)
        with pytest.raises(ValueError):
            lift(flat2, p, kind, np.ones(2))


class TestInducedMetric:
    def test_geodesic_flow_norm(self, rng):
        for nu, eps in [(0, 1), (1, -1)]:
            m = space_form_chart(SpaceFormSpec(2, nu, 1.0))
            p = sample_sb_point(m, eps, rng)
            xi_prime = horizontal_sb(p, p.u)
            assert induced_metric_at(m, p, xi_prime, xi_prime) == pytest.approx(eps, abs=1e-12)

    def test_block_orthogonality(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        p = sample_sb_point(m, 1, rng)
        a = horizontal_sb(p, rng.normal(size=3))
        b = tangential_lift(m, p, rng.normal(size=3))
        assert induced_metric_at(m, p, a, b) == 0.0

    def test_point_mismatch(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p1 = sample_sb_point(m, 1, rng)
        p2 = sample_sb_point(m, 1, rng)
        with pytest.raises(PointMismatch):
            induced_metric_at(m, p1, horizontal_sb(p1, np.ones(2)), horizontal_sb(p2, np.ones(2)))


class TestFrame:
    def test_flat_n2_explicit(self, flat2):
        p = sb_point(flat2, np.zeros(2), np.array([1.0, 0.0]), 1)
        frame = frame_at(flat2, p)
        e = frame.base_frame[0]
        assert np.allclose(np.abs(e), [0.0, 1.0])
        assert np.allclose(frame.vectors[0].tpart, e)
        assert np.allclose(frame.vectors[1].hpart, e)
        assert np.allclose(frame.vectors[2].hpart, p.u)

    @pytest.mark.parametrize("n,nu,eps", [(2, 0, 1), (2, 1, -1), (3, 1, 1), (3, 1, -1)])
    def test_gram_and_negative_count(self, rng, n, nu, eps):
        m = space_form_chart(SpaceFormSpec(n, nu, -1.0))
        p = sample_sb_point(m, eps, rng)
        gram = frame_gram(m, frame_at(m, p))
        assert gram.shape == (2 * n - 1, 2 * n - 1)
        assert np.abs(np.abs(np.diag(gram)) - 1.0).max() < 1e-10
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-10
        expected_neg = 2 * nu - (1 if eps == -1 else 0)
        assert int((np.diag(gram) < 0).sum()) == expected_neg
        assert abs(abs(np.linalg.det(gram)) - 1.0) < 1e-9


class TestSbBracket:
    def test_tt_orthogonal_fields_zero(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p = sample_sb_point(m, 1, rng)
        g = metric_at(m, p.x)
        xc = rng.normal(size=2)
        xc = xc - float(xc @ g @ p.u) * p.u
        yc = rng.normal(size=2)
        yc = yc - float(yc @ g @ p.u) * p.u
        out = sb_bracket(m, xc, yc, "t", "t", p)
        assert np.abs(out.comps()).max() < 1e-12

    def test_flat_constant_ht_zero(self, flat2, rng):
        p = sample_sb_point(flat2, 1, rng)
        out = sb_bracket(flat2, rng.normal(size=2), rng.normal(size=2), "h", "t", p)
        assert np.abs(out.comps()).max() < 1e-12

    def test_tt_general_identity_vs_fd(self, rng):
        # [X^t, Y^t] = eps g(X,u)Y^t - eps g(Y,u)X^t, certified by the FD bracket
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        p = sample_sb_point(m, -1, rng)
        z0 = np.concatenate([p.x, p.u])
        xc, yc = rng.normal(size=3), rng.normal(size=3)
        closed = _embed_induced(m, sb_bracket(m, xc, yc, "t", "t", p))
        fd = fd_lie_bracket(
            sb_lift_field_fn(m, xc, "t", -1), sb_lift_field_fn(m, yc, "t", -1), z0
        )
        assert np.abs(closed - fd).max() < 1e-5
        g = metric_at(m, p.x)
        expected = (-1) * float(xc @ g @ p.u) * tangential_lift(m, p, yc) + float(
            yc @ g @ p.u
        ) * tangential_lift(m, p, xc)
        assert np.abs(_embed_induced(m, expected) - fd).max() < 1e-5


class TestSbNabla:
    def test_tt_orthogonal_zero(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        p = sample_sb_point(m, 1, rng)
        g = metric_at(m, p.x)
        yc = rng.normal(size=2)
        yc = yc - float(yc @ g @ p.u) * p.u
        out = sb_nabla(m, rng.normal(size=2), yc, "t", "t", p)
        assert np.abs(out.comps()).max() < 1e-12

    def test_flat_th_zero(self, flat2, rng):
        p = sample_sb_point(flat2, 1, rng)
        out = sb_nabla(flat2, rng.normal(size=2), rng.normal(size=2), "t", "h", p)
        assert np.abs(out.comps()).max() < 1e-12

    @pytest.mark.parametrize("nu,eps,c", [(0, 1, 1.0), (1, -1, -1.0), (1, 1, 2.0)])
    def test_projection_identity(self, rng, nu, eps, c):
        m = space_form_chart(SpaceFormSpec(3, nu, c))
        p = sample_sb_point(m, eps, rng)
        for kx, ky in [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]:
            xc, yc = rng.normal(size=3), rng.normal(size=3)
            closed = sb_nabla(m, xc, yc, kx, ky, p)
            via = sb_nabla_via_ambient(m, xc, yc, kx, ky, p)
            assert np.abs((closed - via).comps()).max() < 1e-9

    def test_torsion_free_vs_bracket(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        p = sample_sb_point(m, -1, rng)

        def xf(x):
            return np.array([x[1], 0.4 + x[0] ** 2])

        def yf(x):
            return np.array([np.cos(x[0]), x[0] - x[1]])

        for kx, ky in [("h", "h"), ("h", "t"), ("t", "t")]:
            t = (
                sb_nabla(m, xf, yf, kx, ky, p)
                - sb_nabla(m, yf, xf, ky, kx, p)
                - sb_bracket(m, xf, yf, kx, ky, p)
            )
            assert np.abs(t.comps()).max() < 1e-9


def _rbar_by_cases(m, p, a, b, c):
    """R-bar(a, b)c summed from the six closed cases, one vector at a time.

    The reference for the assembled array: each case returns its
    (horizontal, tangential) output parts, and (t, h, .) follows from
    antisymmetry in (a, b).
    """
    g, u, eps = metric_at(m, p.x), p.u, p.eps
    r = riemann_at(m, p.x).apply
    nr_full = nabla_riemann_full(m, p.x)

    def nr(x, *vecs):
        return RiemannTensor(np.einsum("m,mijkl->ijkl", x, nr_full)).apply(*vecs)

    def gu(w):
        return float(w @ g @ u)

    def gt(v, w):
        return float(v @ g @ w) - eps * gu(v) * gu(w)

    zero = np.zeros(m.dim)

    def ttt(x, y, z):
        return zero, eps * (gt(z, y) * x - gt(x, z) * y)

    def tth(x, y, z):
        comm = r(u, x, r(u, y, z)) - r(u, y, r(u, x, z))
        return r(x, y, z) - eps * (gu(y) * r(x, u, z) + gu(x) * r(u, y, z)) + 0.25 * comm, zero

    def htt(x, y, z):
        wh = -0.5 * r(y, z, x) + 0.5 * eps * (gu(y) * r(u, z, x) + gu(z) * r(y, u, x)) - 0.25 * r(u, y, r(u, z, x))
        return wh, zero

    def hth(x, y, z):
        wt = 0.5 * r(x, z, y) - 0.5 * eps * gu(y) * r(x, z, u) - 0.25 * r(x, r(u, y, z), u)
        return 0.5 * nr(x, u, y, z), wt

    def hht(x, y, z):
        wt = r(x, y, z) - eps * gu(z) * r(x, y, u) + 0.25 * (r(y, r(u, z, x), u) - r(x, r(u, z, y), u))
        return 0.5 * (nr(x, u, z, y) - nr(y, u, z, x)), wt

    def hhh(x, y, z):
        wh = r(x, y, z) + 0.5 * r(u, r(x, y, u), z) - 0.25 * (r(u, r(y, z, u), x) - r(u, r(x, z, u), y))
        return wh, 0.5 * nr(z, x, y, u)

    (ah, at), (bh, bt), (ch, ct) = (a.hpart, a.tpart), (b.hpart, b.tpart), (c.hpart, c.tpart)
    terms = [
        (1.0, ttt(at, bt, ct)), (1.0, tth(at, bt, ch)), (1.0, htt(ah, bt, ct)), (1.0, hth(ah, bt, ch)),
        (-1.0, htt(bh, at, ct)), (-1.0, hth(bh, at, ch)), (1.0, hht(ah, bh, ct)), (1.0, hhh(ah, bh, ch)),
    ]
    hpart = sum(s * wh for s, (wh, _) in terms)
    tpart = sum(s * wt for s, (_, wt) in terms)
    return np.concatenate([hpart, tpart - eps * gu(tpart) * u])


class TestSbCurvature:
    @pytest.mark.parametrize(
        "m,eps",
        [
            (space_form_chart(SpaceFormSpec(3, 1, 2.0)), 1),
            (space_form_chart(SpaceFormSpec(3, 1, 2.0)), -1),
            (bumpy_chart(3, 1, seed=12), 1),
            (bumpy_chart(3, 1, seed=12), -1),
        ],
        ids=["space-form+1", "space-form-1", "generic+1", "generic-1"],
    )
    def test_array_matches_the_six_cases(self, rng, m, eps):
        # same formulas, other summation order: agreement to rounding
        for _ in range(3):
            p = sample_sb_point(m, eps, rng)
            a, b, c = (sample_sb_vec(m, p, rng) for _ in range(3))
            got = sb_curvature(m, p, a, b, c).comps()
            ref = _rbar_by_cases(m, p, a, b, c)
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_all_tangential_closed_form_any_base(self, rng):
        # eq for (t,t,t) holds for every base metric, including flat
        for m in (flat_chart(2, 0), bumpy_chart(3, 1, seed=6)):
            eps = 1
            p = sample_sb_point(m, eps, rng)
            xt = tangential_lift(m, p, rng.normal(size=m.dim))
            yt = tangential_lift(m, p, rng.normal(size=m.dim))
            zt = tangential_lift(m, p, rng.normal(size=m.dim))
            got = sb_curvature(m, p, xt, yt, zt)
            expected = eps * (
                (-induced_metric_at(m, p, xt, zt)) * yt + induced_metric_at(m, p, zt, yt) * xt
            )
            assert np.abs((got - expected).comps()).max() < 1e-12

    def test_flat_mixed_hth_zero(self, flat2, rng):
        p = sample_sb_point(flat2, 1, rng)
        a = horizontal_sb(p, rng.normal(size=2))
        b = tangential_lift(flat2, p, rng.normal(size=2))
        c = horizontal_sb(p, rng.normal(size=2))
        assert np.abs(sb_curvature(flat2, p, a, b, c).comps()).max() < 1e-14

    def test_antisymmetry_and_trilinearity(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        p = sample_sb_point(m, -1, rng)
        a, b, c = (sample_sb_vec(m, p, rng) for _ in range(3))
        r1 = sb_curvature(m, p, a, b, c)
        r2 = sb_curvature(m, p, b, a, c)
        assert np.abs((r1 + r2).comps()).max() < 1e-10
        r3 = sb_curvature(m, p, 2.5 * a, b, c)
        assert np.abs((r3 - 2.5 * r1).comps()).max() < 1e-9

    @pytest.mark.parametrize("n,nu,c,eps", [(2, 0, 1.0, 1), (3, 1, -1.0, -1), (3, 0, 2.0, 1)])
    def test_gauss_oracle_space_forms(self, rng, n, nu, c, eps):
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        for _ in range(4):
            p = sample_sb_point(m, eps, rng)
            a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
            closed = sb_curvature(m, p, a, b, cv)
            oracle = gauss_curvature_oracle(m, p, a, b, cv)
            assert np.abs((closed - oracle).comps()).max() < 1e-5

    @pytest.mark.parametrize("n,nu,eps", [(2, 0, 1), (3, 1, 1), (3, 1, -1)])
    def test_gauss_oracle_generic_chart(self, rng, n, nu, eps):
        # non-symmetric base: exercises the nabla-R terms of the closed forms
        m = bumpy_chart(n, nu, seed=12)
        for _ in range(3):
            p = sample_sb_point(m, eps, rng)
            a, b, cv = (sample_sb_vec(m, p, rng) for _ in range(3))
            closed = sb_curvature(m, p, a, b, cv)
            oracle = gauss_curvature_oracle(m, p, a, b, cv)
            assert np.abs((closed - oracle).comps()).max() < 1e-5

    # on a generic base the nabla-R blocks are central differences of
    # riemann_at, whose rounding error the benchmark bounds by 1e-6
    @pytest.mark.parametrize(
        "m,tol",
        [(space_form_chart(SpaceFormSpec(3, 1, -1.0)), 1e-8), (bumpy_chart(3, 1, seed=12), 1e-6)],
        ids=["space-form", "generic"],
    )
    def test_lowered_symmetries(self, rng, m, tol):
        p = sample_sb_point(m, -1, rng)
        a, b, c, d = (sample_sb_vec(m, p, rng) for _ in range(4))

        def low(v1, v2, v3, v4):
            return induced_metric_at(m, p, sb_curvature(m, p, v1, v2, v3), v4)

        assert abs(low(a, b, c, d) + low(b, a, c, d)) < tol
        assert abs(low(a, b, c, d) + low(a, b, d, c)) < tol
        assert abs(low(a, b, c, d) - low(c, d, a, b)) < tol
        bianchi = (
            sb_curvature(m, p, a, b, c)
            + sb_curvature(m, p, b, c, a)
            + sb_curvature(m, p, c, a, b)
        )
        assert np.abs(bianchi.comps()).max() < tol


class TestPointGeometry:
    """One geometry context per (chart, bundle point), kept by the point."""

    def test_one_context_per_chart_and_point(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 1.0))
        p = sample_sb_point(m, 1, rng)
        geo = point_geometry(m, p)
        assert point_geometry(m, p) is geo
        assert p.tm is p.tm and geo.base is base_geometry(m, p.tm)  # shared with the TM layer

    def test_riemann_read_once_per_bundle_point(self, monkeypatch):
        reads = []
        real = manifold.riemann_at

        def counted(m, x):
            reads.append(np.array(x))
            return real(m, x)

        patch_everywhere(monkeypatch, real, counted)
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        rng = np.random.default_rng(3)
        contact.sasakian_residual(m, sample_sb_point(m, 1, rng), rng, num_samples=8)
        assert len(reads) == 1
        reads.clear()
        cfg = suites.SuiteConfig("connection", n=2, nu=1, num_points=2, num_samples=8)
        rows = list(suites._suite_connection(cfg, m, cfg.params()))
        assert rows and len(reads) == 2 and not np.array_equal(reads[0], reads[1])

    def test_nabla_riemann_built_once_per_bundle_point(self, monkeypatch, rng):
        calls = []
        real = manifold.nabla_riemann_full

        def counted(m, x):
            calls.append(None)
            return real(m, x)

        patch_everywhere(monkeypatch, real, counted)
        m = bumpy_chart(2, 1)
        p = sample_sb_point(m, -1, rng)
        a, b, c = (sample_sb_vec(m, p, rng) for _ in range(3))
        sb_curvature(m, p, a, b, c)
        sb_curvature(m, p, c, b, a)
        km = contact.kappa_mu_for_space_form(1.0, -1)
        contact.kappa_mu_residual(m, p, km, rng, num_samples=6)
        assert len(calls) == 1

    def test_each_chart_gets_its_own_values(self):
        x, u = np.array([0.1, -0.2]), np.array([0.3, 1.1])
        p = SBPoint(x, u, 1)
        m1 = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        m2 = space_form_chart(SpaceFormSpec(2, 0, 1.0))  # an equal chart, but another object
        m3 = bumpy_chart(2, 0)
        geos = [point_geometry(m, p) for m in (m1, m2, m3)]
        assert len({id(geo) for geo in geos}) == 3
        for m, geo in zip((m1, m2, m3), geos):
            assert np.array_equal(geo.base.g, metric_at(m, x))
            assert np.array_equal(geo.base.riem.r, riemann_at(m, x).r)
            fresh = SBPoint(x.copy(), u.copy(), 1)
            assert np.array_equal(geo.rbar, point_geometry(m, fresh).rbar)
            assert np.array_equal(h_at(m, p).matrix, h_at(m, fresh).matrix)
        assert not np.allclose(geos[0].rbar, geos[2].rbar)

    def test_context_arrays_are_read_only(self, rng):
        m = bumpy_chart(2, 1)
        geo = point_geometry(m, sample_sb_point(m, -1, rng))
        es, signs = geo.base_frame
        arrays = [geo.base.g, geo.base.gamma, geo.base.riem.r, geo.gu, geo.proj, geo.r, geo.ruu,
                  geo.nabla_r, geo.rbar, geo.h_parts, signs, *es]
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_the_chart_keeps_its_own_array_writable(self, flat2):
        p = sb_point(flat2, np.zeros(2), np.array([1.0, 0.0]), 1)
        assert not point_geometry(flat2, p).base.g.flags.writeable
        assert flat2.metric_fn(np.zeros(2)).flags.writeable  # the chart returns one constant

    @pytest.mark.parametrize("chart,eps", [("space form", -1), ("bumpy", 1)])
    def test_results_at_a_fresh_copy_are_bit_identical(self, rng, chart, eps):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1)
        p = sample_sb_point(m, eps, rng)
        vecs = [sample_sb_vec(m, p, rng) for _ in range(3)]
        xc, yc = rng.normal(size=3), rng.normal(size=3)

        def results(q, reverse):
            a, b, c = (SBVec(q, v.hpart, v.tpart) for v in vecs)
            steps = [
                lambda: sb_curvature(m, q, a, b, c).comps(),
                lambda: h_at(m, q).matrix,
                lambda: nabla_phi(m, q, a, b).comps(),
                lambda: nabla_xi(m, q, a).comps(),
                lambda: sb_nabla(m, xc, yc, "h", "t", q).comps(),
                lambda: sb_bracket(m, xc, yc, "h", "h", q).comps(),
                lambda: psi_u_matrix(m, q),
                lambda: frame_at(m, q).parts(),
                lambda: tangential_lift(m, q, xc).comps(),
            ]
            order = range(len(steps))[::-1] if reverse else range(len(steps))
            out = {i: steps[i]() for i in order}
            return [out[i] for i in range(len(steps))]

        first = results(p, reverse=False)
        again = results(p, reverse=False)  # every part now comes from the filled context
        fresh = results(SBPoint(p.x.copy(), p.u.copy(), p.eps), reverse=True)  # filled in another order
        for x, y, z in zip(first, again, fresh):
            assert np.array_equal(x, y) and np.array_equal(x, z)


def _conformal_factor(c, nu, x):
    signs = np.array([-1.0] * nu + [1.0] * (x.size - nu))
    return 1.0 + 0.25 * c * float(signs @ (x * x))


def _unit_fiber_vector(n, nu, eps, f, t, direction):
    """u with g(u, u) = eps on the space-form chart with conformal factor f.

    For nu = 1 the hyperbolic angle t moves u towards the light cone, so
    ||u|| = f sqrt(cosh 2t) is unbounded; ``direction`` gives the spatial part.
    """
    spatial = np.zeros(n)
    spatial[nu:] = direction[: n - nu]
    assume(np.linalg.norm(spatial) > 0.1)
    spatial /= np.linalg.norm(spatial)
    if nu == 0:
        return f * spatial
    time = np.eye(n)[0]
    if eps == 1:
        return f * (np.sinh(t) * time + np.cosh(t) * spatial)
    return f * (np.cosh(t) * time + np.sinh(t) * spatial)


def _assert_sound_at_the_edge(m, p):
    """Frame Gram entries of +-1, h(xi) = 0, and the same results at a fresh copy of p."""
    frame = frame_at(m, p)
    gram = frame_gram(m, frame)
    assert np.abs(np.abs(np.diag(gram)) - 1.0).max() < 1e-10
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-10
    hop = h_at(m, p)
    assert np.abs(hop.apply(contact_data_at(m, p).xi).comps()).max() < 1e-12
    fresh = SBPoint(p.x.copy(), p.u.copy(), p.eps)
    assert np.array_equal(h_at(m, fresh).matrix, hop.matrix)
    assert np.array_equal(frame_at(m, fresh).parts(), frame.parts())


EDGE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
CURVATURES = st.sampled_from([-1.0, 0.0, 1.0, 2.0])
DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


class TestHardEdges:
    """sb_point, frame_at and h_at where sampling rarely goes."""

    @EDGE_SETTINGS
    @given(st.sampled_from([2, 3]), st.sampled_from([1, -1]), CURVATURES,
           st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
           st.floats(2.5, 3.0), st.sampled_from([1.0, -1.0]), DIRECTIONS)
    def test_fiber_vectors_near_u_max(self, n, eps, c, coords, norm, sign, spatial):
        # sample_fiber_vector keeps ||u|| <= u_max = 3
        m = space_form_chart(SpaceFormSpec(n, 1, c))
        x = np.array(coords[:n])
        f = _conformal_factor(c, 1, x)
        t = sign * 0.5 * np.arccosh((norm / f) ** 2)
        p = sb_point(m, x, _unit_fiber_vector(n, 1, eps, f, t, spatial), eps)
        assert abs(np.linalg.norm(p.u) - norm) < 1e-9
        _assert_sound_at_the_edge(m, p)

    @EDGE_SETTINGS
    @given(st.sampled_from([(2, 0, 1), (2, 1, 1), (2, 1, -1), (3, 0, 1), (3, 1, 1), (3, 1, -1)]),
           st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.floats(1e-6, 1e-2), st.floats(-1.0, 1.0), DIRECTIONS)
    def test_base_points_near_the_domain_boundary(self, config, c, direction, margin, t, spatial):
        # the space-form domain is F > 0.05; here F = 0.05 + margin
        n, nu, eps = config
        d = np.array(direction[:n])
        assume(np.linalg.norm(d) > 0.1)
        d /= np.linalg.norm(d)
        q = float(np.array([-1.0] * nu + [1.0] * (n - nu)) @ (d * d))
        assume(c * q < -0.05)
        x = d * np.sqrt(4.0 * (0.05 + margin - 1.0) / (c * q))
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        f = _conformal_factor(c, nu, x)
        assert abs(f - 0.05 - margin) < 1e-9 and m.domain_fn(x)
        _assert_sound_at_the_edge(m, sb_point(m, x, _unit_fiber_vector(n, nu, eps, f, t, spatial), eps))

    @EDGE_SETTINGS
    @given(st.sampled_from([2, 3]), CURVATURES,
           st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
           st.floats(1e-4, 1e-2), st.sampled_from([1.0, -1.0]), DIRECTIONS)
    def test_nearly_null_frame_candidates_at_timelike_fibers(self, n, c, coords, ratio, sign, spatial):
        # the first candidate e_0 projects to w with g(w, w) = ratio^2, around
        # the 1e-6 below which frame_at skips a candidate
        m = space_form_chart(SpaceFormSpec(n, 1, c))
        x = np.array(coords[:n])
        f = _conformal_factor(c, 1, x)
        t = sign * np.arcsinh(ratio * f)
        p = sb_point(m, x, _unit_fiber_vector(n, 1, -1, f, t, spatial), -1)
        _assert_sound_at_the_edge(m, p)
