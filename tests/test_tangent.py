"""Tangent bundle: lifts, induced coordinates, Sasaki metric, connection, J."""

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasakigeo import manifold
from sasakigeo.errors import PointMismatch
from sasakigeo.manifold import SpaceFormSpec, base_context, metric_at, space_form_chart
from sasakigeo.oracle import ambient_nabla, fd_christoffel, fd_lie_bracket, field_jet, lift_field_fn, sasaki_gamma_fn
from sasakigeo.sampling import sample_domain_point, sample_fiber_vector
from sasakigeo.sphere import frame_at, sb_nabla, sb_point
from sasakigeo.stencil import FD_STEP_FIRST, jacobian
from sasakigeo.tangent import (
    TMPoint,
    TMVec,
    almost_complex_J,
    from_induced_coords,
    lift_bracket,
    sasaki_metric_at,
    tm_nabla,
    to_induced_coords,
)

from conftest import bumpy_chart


def _tm_point(m, rng, eps=1):
    x = sample_domain_point(m, rng, box=0.4)
    u = sample_fiber_vector(m, x, eps, rng)
    return TMPoint(x, u)


class TestLifts:
    def test_horizontal_lift_induced_coords(self, rng):
        # X^h = (X ; -u^b X^a Gamma_ab); expected vertical part from the FD oracle
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        at = _tm_point(m, rng)
        xv = rng.normal(size=2)
        w = to_induced_coords(m, TMVec(at, xv, np.zeros(2)))
        gamma = fd_christoffel(m.metric_fn, at.x)
        expected_du = -np.einsum("iab,a,b->i", gamma, xv, at.u)
        assert np.allclose(w[:2], xv)
        assert np.abs(w[2:] - expected_du).max() < 1e-6

    def test_flat_base_trivial(self, flat2, rng):
        at = _tm_point(flat2, rng)
        xv = rng.normal(size=2)
        assert np.allclose(to_induced_coords(flat2, TMVec(at, xv, np.zeros(2))), np.r_[xv, 0, 0])
        assert np.allclose(to_induced_coords(flat2, TMVec(at, np.zeros(2), xv)), np.r_[0, 0, xv])

    def test_round_trip(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        at = _tm_point(m, rng, eps=-1)
        v = TMVec(at, rng.normal(size=3), rng.normal(size=3))
        w = to_induced_coords(m, v)
        back = from_induced_coords(m, at, w)
        assert np.abs(back.hpart - v.hpart).max() < 1e-12
        assert np.abs(back.vpart - v.vpart).max() < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=4))
    def test_round_trip_hypothesis(self, comps):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        at = TMPoint(np.array([0.1, 0.2]), np.array([0.5, -0.3]))
        v = TMVec(at, np.asarray(comps[:2]), np.asarray(comps[2:]))
        back = from_induced_coords(m, at, to_induced_coords(m, v))
        assert np.abs(back.hpart - v.hpart).max() < 1e-12
        assert np.abs(back.vpart - v.vpart).max() < 1e-12


class TestSasakiMetric:
    def test_h_v_orthogonal(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        at = _tm_point(m, rng)
        xv = rng.normal(size=2)
        assert sasaki_metric_at(m, at, TMVec(at, xv, np.zeros(2)), TMVec(at, np.zeros(2), xv)) == 0.0

    def test_lifted_frame_orthonormal_with_index_2nu(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        at = _tm_point(m, rng, eps=-1)
        p = sb_point(m, at.x, at.u, -1)
        frame = frame_at(m, p)
        base = list(frame.base_frame) + [at.u]
        lifts = [TMVec(at, e, np.zeros(3)) for e in base] + [TMVec(at, np.zeros(3), e) for e in base]
        gram = np.array([[sasaki_metric_at(m, at, a, b) for b in lifts] for a in lifts])
        offdiag = gram - np.diag(np.diag(gram))
        assert np.abs(offdiag).max() < 1e-10
        assert np.abs(np.abs(np.diag(gram)) - 1.0).max() < 1e-10
        assert int((np.diag(gram) < 0).sum()) == 2 * m.index

    def test_point_mismatch(self, flat2):
        at1 = TMPoint(np.zeros(2), np.array([1.0, 0.0]))
        at2 = TMPoint(np.zeros(2), np.array([0.0, 1.0]))
        a = TMVec(at1, np.ones(2), np.zeros(2))
        b = TMVec(at2, np.ones(2), np.zeros(2))
        with pytest.raises(PointMismatch):
            sasaki_metric_at(flat2, at1, a, b)

    def test_points_a_relative_3e_6_apart_are_distinct(self):
        # the guard compares absolutely: a relative tolerance would pass these as one point
        at1 = TMPoint(np.array([0.4, -0.3]), np.array([1.0, 0.5]))
        at2 = TMPoint(1.000003 * at1.x, at1.u)
        with pytest.raises(PointMismatch):
            TMVec(at1, np.ones(2), np.zeros(2)) + TMVec(at2, np.ones(2), np.zeros(2))


class TestTmNabla:
    def test_flat_vh_zero(self, flat2, rng):
        at = _tm_point(flat2, rng)
        out = tm_nabla(flat2, rng.normal(size=2), rng.normal(size=2), "v", "h", at)
        assert np.allclose(out.hpart, 0.0) and np.allclose(out.vpart, 0.0)

    def test_space_form_hh_constant_orthogonal_fields(self, rng):
        # For constant-curvature R, R(X, Y)u = c(g(Y,u)X - g(X,u)Y): zero when
        # X, Y, u are mutually orthogonal, so the vertical part vanishes.
        c = 2.0
        m = space_form_chart(SpaceFormSpec(3, 0, c))
        at = _tm_point(m, rng)
        p = sb_point(m, at.x, at.u, 1)
        e1, e2 = frame_at(m, p).base_frame
        out = tm_nabla(m, e1, e2, "h", "h", at)
        assert np.abs(out.vpart).max() < 1e-12
        # and in general the vertical part is -c/2 (g(Y,u)X - g(X,u)Y)
        g = metric_at(m, at.x)
        xv, yv = rng.normal(size=3), rng.normal(size=3)
        out = tm_nabla(m, xv, yv, "h", "h", at)
        expected = -0.5 * c * (float(yv @ g @ at.u) * xv - float(xv @ g @ at.u) * yv)
        assert np.abs(out.vpart - expected).max() < 1e-10

    def test_against_fd_christoffels_of_tg(self, rng):
        m = bumpy_chart(2, 0, seed=4)
        at = _tm_point(m, rng)
        z0 = np.concatenate([at.x, at.u])
        gamma_tilde = sasaki_gamma_fn(m)(z0)

        def xf(x):
            return np.array([np.sin(x[1]), x[0] ** 2 + 1.0])

        def yf(x):
            return np.array([x[1], np.cos(x[0])])

        for kx, ky in [("h", "h"), ("h", "v"), ("v", "h"), ("v", "v")]:
            closed = to_induced_coords(m, tm_nabla(m, xf, yf, kx, ky, at))
            amb = ambient_nabla(lift_field_fn(m, xf, kx)(z0), field_jet(lift_field_fn(m, yf, ky), z0), gamma_tilde)
            assert np.abs(closed - amb).max() < 1e-5

    def test_torsion_free(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        at = _tm_point(m, rng)

        def xf(x):
            return np.array([x[1] ** 2, 0.3 + x[0]])

        def yf(x):
            return np.array([np.sin(x[0] + x[1]), x[0] * x[1]])

        for kx, ky in [("h", "h"), ("h", "v"), ("v", "v")]:
            t = (
                tm_nabla(m, xf, yf, kx, ky, at)
                - tm_nabla(m, yf, xf, ky, kx, at)
                - lift_bracket(m, xf, yf, kx, ky, at)
            )
            assert max(np.abs(t.hpart).max(), np.abs(t.vpart).max()) < 1e-9


class TestLiftBracket:
    def test_vv_zero(self, flat2, rng):
        at = _tm_point(flat2, rng)
        out = lift_bracket(flat2, rng.normal(size=2), rng.normal(size=2), "v", "v", at)
        assert np.allclose(out.hpart, 0.0) and np.allclose(out.vpart, 0.0)

    def test_flat_coordinate_fields_hh_zero(self, flat2, rng):
        at = _tm_point(flat2, rng)
        out = lift_bracket(flat2, np.array([1.0, 0.0]), np.array([0.0, 1.0]), "h", "h", at)
        assert np.allclose(out.hpart, 0.0) and np.allclose(out.vpart, 0.0)

    def test_against_fd_oracle(self, rng):
        m = bumpy_chart(2, 0, seed=9)
        at = _tm_point(m, rng)
        z0 = np.concatenate([at.x, at.u])

        def xf(x):
            return np.array([np.sin(x[1]), x[0] * x[1]])

        def yf(x):
            return np.array([x[0] ** 2, np.cos(x[1])])

        for kx, ky in [("h", "h"), ("h", "v"), ("v", "h")]:
            closed = to_induced_coords(m, lift_bracket(m, xf, yf, kx, ky, at))
            fd = fd_lie_bracket(lift_field_fn(m, xf, kx), lift_field_fn(m, yf, ky), z0)
            assert np.abs(closed - fd).max() < 1e-5


@pytest.mark.parametrize("fn", [tm_nabla, lift_bracket])
@pytest.mark.parametrize("kinds", [("", "h"), ("v", ""), ("hv", "v"), ("h", "vh"), ("t", "h")])
def test_only_h_and_v_lift_kinds_are_accepted(flat2, rng, fn, kinds):
    at = _tm_point(flat2, rng)
    with pytest.raises(ValueError):
        fn(flat2, np.ones(2), np.ones(2), *kinds, at)


class TestAlmostComplexJ:
    def test_lift_exchange(self, flat2, rng):
        at = _tm_point(flat2, rng)
        xv = rng.normal(size=2)
        jh = almost_complex_J(TMVec(at, xv, np.zeros(2)))
        assert np.allclose(jh.hpart, 0.0) and np.allclose(jh.vpart, xv)
        jv = almost_complex_J(TMVec(at, np.zeros(2), xv))
        assert np.allclose(jv.hpart, -xv) and np.allclose(jv.vpart, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    def test_j_squared_minus_identity(self, comps):
        at = TMPoint(np.zeros(2), np.array([1.0, 0.0]))
        v = TMVec(at, np.asarray(comps[:2]), np.asarray(comps[2:]))
        jj = almost_complex_J(almost_complex_J(v))
        assert np.array_equal(jj.hpart, -v.hpart)
        assert np.array_equal(jj.vpart, -v.vpart)

    def test_hermitian(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        at = _tm_point(m, rng, eps=-1)
        for _ in range(10):
            a = TMVec(at, rng.normal(size=3), rng.normal(size=3))
            b = TMVec(at, rng.normal(size=3), rng.normal(size=3))
            lhs = sasaki_metric_at(m, at, almost_complex_J(a), almost_complex_J(b))
            assert lhs == pytest.approx(sasaki_metric_at(m, at, a, b), abs=1e-12)


@pytest.fixture
def stencils(monkeypatch):
    """The fields that ``BaseContext.nabla`` runs a Jacobian stencil of, in order."""
    seen = []

    def counted(fn, z, step):
        seen.append(fn)
        return jacobian(fn, z, step)

    monkeypatch.setattr(manifold, "jacobian", counted)
    return seen


def _quadratic_field(rng, n=3):
    a1, a2 = rng.normal(size=(n, n)), rng.normal(size=(n, n, n))

    def field(x):
        return a1 @ x + np.einsum("ijk,j,k->i", a2, x, x)

    return field


class TestNablaJacobianMemo:
    """``BaseContext.nabla`` differentiates each callable field once per base point and never a constant one."""

    def test_constant_field_runs_no_stencil(self, rng, stencils):
        m = bumpy_chart(3, 1)
        at = _tm_point(m, rng)
        base = base_context(m, at.x)
        xv, w = rng.normal(size=3), rng.normal(size=3)
        assert np.array_equal(base.nabla(m, xv, w, w), np.einsum("iab,a,b->i", base.curvature(m)[0], xv, w))
        for ky in ("h", "v"):
            tm_nabla(m, xv, w, "h", ky, at)
        lift_bracket(m, xv, w, "h", "h", at)
        assert stencils == []

    def test_callable_field_runs_one_stencil_per_point(self, rng, stencils):
        m = bumpy_chart(3, 1)
        at = _tm_point(m, rng)
        base = base_context(m, at.x)
        f, h = _quadratic_field(rng), _quadratic_field(rng)
        jac = jacobian(f, at.x, FD_STEP_FIRST)
        for _ in range(3):
            xv = rng.normal(size=3)
            expected = jac @ xv + np.einsum("iab,a,b->i", base.curvature(m)[0], xv, f(at.x))
            assert np.array_equal(base.nabla(m, xv, f, f(at.x)), expected)
        assert stencils == [f]
        for kx, ky in [("h", "h"), ("h", "v"), ("v", "h")]:
            lift_bracket(m, f, h, kx, ky, at)
        assert stencils == [f, h]

    def test_a_new_point_recomputes(self, rng, stencils):
        m = bumpy_chart(3, 1)
        at = _tm_point(m, rng)
        f = _quadratic_field(rng)
        xv = rng.normal(size=3)
        first = tm_nabla(m, xv, f, "h", "h", at).hpart
        again = TMPoint(at.x.copy(), at.u.copy())  # the same coordinates, another point
        moved = TMPoint(at.x + 0.01, at.u)
        base = base_context(m, moved.x)
        expected = jacobian(f, moved.x, FD_STEP_FIRST) @ xv + np.einsum("iab,a,b->i", base.curvature(m)[0], xv, f(moved.x))
        for _ in range(2):
            assert np.array_equal(tm_nabla(m, xv, f, "h", "h", again).hpart, first)
            assert np.array_equal(tm_nabla(m, xv, f, "h", "h", moved).hpart, expected)
        assert stencils == [f, f]  # one at each of the two base points

    @pytest.mark.parametrize("connection", ["tm_nabla", "sb_nabla"])
    def test_a_callable_field_is_evaluated_at_x_once_per_call(self, rng, connection):
        # cold: the Jacobian stencil (2n rows) and one value at x; warm: that value alone
        m = bumpy_chart(3, 1)
        at = _tm_point(m, rng)
        f, calls = _quadratic_field(rng), []

        def counted(x):
            calls.append(x)
            return f(x)

        xv = rng.normal(size=3)
        if connection == "tm_nabla":
            query = lambda: tm_nabla(m, xv, counted, "h", "h", at)  # noqa: E731
        else:
            p = sb_point(m, at.x, at.u, 1)
            query = lambda: sb_nabla(m, xv, counted, "h", "h", p)  # noqa: E731
        query()
        assert len(calls) == 7
        query()
        assert len(calls) == 8

    def test_a_field_outlived_by_its_id_is_not_served_a_stale_jacobian(self, flat2, rng):
        base = base_context(flat2, _tm_point(flat2, rng).x)
        xv = rng.normal(size=2)
        for c in (1.0, 2.0, 3.0, 4.0):
            assert np.allclose(base.nabla(flat2, xv, lambda x, c=c: c * x, c * base.x), c * xv)
            gc.collect()  # the memo holds each field, so no later field can take its id


class TestTmLayerReadsTheChartOnce:
    """The TM layer's g, Gamma and R come from x's ``base_context``: one read of g, g' and g'' for every point over x."""

    @staticmethod
    def _counting(m, calls):
        def counted(name):
            fn = getattr(m, name)

            def wrapped(y):
                calls[name] += 1
                return fn(y)

            return wrapped

        return replace(m, **{name: counted(name) for name in calls})

    @staticmethod
    def _reads(m, at, xv):
        """Each TM closed form by the base part it reads: g, Gamma, and R through the lift connection array."""
        return {
            "g": lambda: sasaki_metric_at(m, at, TMVec(at, xv, xv), TMVec(at, xv, xv)),
            "gamma": lambda: to_induced_coords(m, TMVec(at, xv, xv)),
            "riem": lambda: tm_nabla(m, xv, xv, "v", "h", at).comps(),
        }

    @pytest.mark.parametrize("order", [("g", "gamma", "riem"), ("riem", "gamma", "g"), ("gamma", "riem", "g")])
    def test_one_read_of_each_callable_in_any_order(self, rng, order):
        m = bumpy_chart(3, 1)
        calls = dict.fromkeys(("metric_fn", "deriv1_fn", "deriv2_fn"), 0)
        counting = self._counting(m, calls)
        x, xv = sample_domain_point(m, rng, box=0.4), rng.normal(size=3)
        points = [TMPoint(x, sample_fiber_vector(m, x, eps, rng)) for eps in (1, -1)]  # two u over one x
        for at in points:
            got, reads = self._reads(counting, at, xv), self._reads(m, TMPoint(at.x.copy(), at.u.copy()), xv)
            for part in order:
                assert np.array_equal(got[part](), reads[part]())
        assert calls == dict.fromkeys(calls, 1)

    def test_g_alone_reads_only_the_metric(self, rng):
        m = bumpy_chart(3, 1)
        calls = dict.fromkeys(("metric_fn", "deriv1_fn", "deriv2_fn"), 0)
        counting = self._counting(m, calls)
        at, xv = _tm_point(m, rng), rng.normal(size=3)
        self._reads(counting, at, xv)["g"]()
        assert calls == {"metric_fn": 1, "deriv1_fn": 0, "deriv2_fn": 0}


class TestTmPointGuardFastPath:
    def test_equal_coordinates_at_distinct_points_add(self):
        at1 = TMPoint(np.array([0.4, -0.3]), np.array([1.0, 0.5]))
        at2 = TMPoint(at1.x.copy(), at1.u.copy())
        total = TMVec(at1, np.ones(2), np.zeros(2)) + TMVec(at2, np.ones(2), np.ones(2))
        assert total.at is at1 and np.array_equal(total.hpart, [2.0, 2.0])
        near = TMPoint(at1.x + 5e-13, at1.u)  # within the guard's 1e-12
        TMVec(at1, np.ones(2), np.zeros(2)) + TMVec(near, np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("part", ["x", "u"])
    @pytest.mark.parametrize("shift", [2e-12, np.nan])
    def test_coordinates_apart_or_nan_raise(self, part, shift):
        x, u = np.array([0.4, -0.3]), np.array([1.0, 0.5])
        at1 = TMPoint(x, u)
        moved = {"x": x.copy(), "u": u.copy()}
        moved[part][0] += shift
        at2 = TMPoint(moved["x"], moved["u"])
        with pytest.raises(PointMismatch):
            TMVec(at1, np.ones(2), np.zeros(2)) + TMVec(at2, np.ones(2), np.zeros(2))
        if np.isnan(shift):  # two NaN points are not one point, even with equal bits
            twin = TMPoint(moved["x"].copy(), moved["u"].copy())
            with pytest.raises(PointMismatch):
                TMVec(at2, np.ones(2), np.zeros(2)) + TMVec(twin, np.ones(2), np.zeros(2))
