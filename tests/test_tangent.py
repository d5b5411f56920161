"""Tangent bundle: lifts, induced coordinates, Sasaki metric, connection, J."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasakigeo.errors import BasePointMismatch, PointMismatch
from sasakigeo.manifold import SpaceFormSpec, TangentVec, metric_at, space_form_chart
from sasakigeo.oracle import fd_christoffel, fd_lie_bracket, lift_field_fn, sasaki_gamma_fn, ambient_nabla
from sasakigeo.sampling import sample_domain_point, sample_fiber_vector
from sasakigeo.sphere import frame_at, sb_point
from sasakigeo.tangent import (
    TMPoint,
    TMVec,
    almost_complex_J,
    from_induced_coords,
    horizontal_lift,
    lift_bracket,
    project,
    sasaki_metric_at,
    tm_nabla,
    to_induced_coords,
    vertical_lift,
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
        xv = TangentVec(at.x, rng.normal(size=2))
        w = to_induced_coords(m, horizontal_lift(m, xv, at))
        gamma = fd_christoffel(m.metric_fn, at.x).gamma
        expected_du = -np.einsum("iab,a,b->i", gamma, xv.comps, at.u)
        assert np.allclose(w[:2], xv.comps)
        assert np.abs(w[2:] - expected_du).max() < 1e-6

    def test_flat_base_trivial(self, flat2, rng):
        at = _tm_point(flat2, rng)
        xv = TangentVec(at.x, rng.normal(size=2))
        assert np.allclose(to_induced_coords(flat2, horizontal_lift(flat2, xv, at)), np.r_[xv.comps, 0, 0])
        assert np.allclose(to_induced_coords(flat2, vertical_lift(flat2, xv, at)), np.r_[0, 0, xv.comps])

    def test_projection_and_connection_map(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        at = _tm_point(m, rng)
        xv = TangentVec(at.x, rng.normal(size=2))
        pi_h, k_h = project(horizontal_lift(m, xv, at))
        assert np.allclose(pi_h.comps, xv.comps) and np.allclose(k_h.comps, 0.0)
        pi_v, k_v = project(vertical_lift(m, xv, at))
        assert np.allclose(pi_v.comps, 0.0) and np.allclose(k_v.comps, xv.comps)

    def test_base_point_mismatch(self, flat2):
        at = TMPoint(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(BasePointMismatch):
            horizontal_lift(flat2, TangentVec(np.array([1.0, 1.0]), np.ones(2)), at)

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
        xv = TangentVec(at.x, rng.normal(size=2))
        assert sasaki_metric_at(m, at, horizontal_lift(m, xv, at), vertical_lift(m, xv, at)) == 0.0

    def test_lifted_frame_orthonormal_with_index_2nu(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        at = _tm_point(m, rng, eps=-1)
        p = sb_point(m, at.x, at.u, -1)
        frame = frame_at(m, p)
        base = list(frame.base_frame) + [at.u]
        lifts = [horizontal_lift(m, TangentVec(at.x, e), at) for e in base]
        lifts += [vertical_lift(m, TangentVec(at.x, e), at) for e in base]
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
        gamma_tilde = sasaki_gamma_fn(m)

        def xf(x):
            return np.array([np.sin(x[1]), x[0] ** 2 + 1.0])

        def yf(x):
            return np.array([x[1], np.cos(x[0])])

        for kx, ky in [("h", "h"), ("h", "v"), ("v", "h"), ("v", "v")]:
            closed = to_induced_coords(m, tm_nabla(m, xf, yf, kx, ky, at))
            amb = ambient_nabla(lift_field_fn(m, xf, kx), lift_field_fn(m, yf, ky), z0, gamma_tilde)
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
        xv = TangentVec(at.x, rng.normal(size=2))
        jh = almost_complex_J(horizontal_lift(flat2, xv, at))
        assert np.allclose(jh.hpart, 0.0) and np.allclose(jh.vpart, xv.comps)
        jv = almost_complex_J(vertical_lift(flat2, xv, at))
        assert np.allclose(jv.hpart, -xv.comps) and np.allclose(jv.vpart, 0.0)

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
