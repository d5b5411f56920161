"""Base-chart geometry: metric, connection, curvature, space forms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasakigeo import manifold
from sasakigeo.errors import DegenerateMetric, DegeneratePlane, OutOfDomain
from sasakigeo.manifold import (
    ChartedMetric,
    SpaceFormSpec,
    christoffel_at,
    metric_at,
    metric_deriv1_at,
    nabla_riemann_full,
    riemann_at,
    sectional_curvature,
    signature_at,
    space_form_chart,
    validate_space_form,
)
from sasakigeo.oracle import fd_christoffel, fd_riemann
from sasakigeo.sampling import sample_domain_point, sample_tangent_plane
from sasakigeo.stencil import FD_STEP_FIRST, FD_STEP_SECOND, partials

from conftest import bumpy_chart, flat_chart


def lower_riemann(m, x, r):
    """``g_im r[m, a, b, c]`` = g(R(e_a, e_b)e_c, e_i)."""
    return np.einsum("im,mabc->iabc", metric_at(m, x), r)


class TestMetricAt:
    def test_flat_metric_constant(self, flat2):
        assert np.allclose(metric_at(flat2, np.array([0.3, 0.7])), np.eye(2))

    def test_space_form_conformal_factor_one_at_origin(self):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        assert np.allclose(metric_at(m, np.zeros(2)), np.diag([-1.0, 1.0]))

    def test_space_form_value_by_hand(self):
        # F = 1 + (1/4)(0.2^2) = 1.01, entry = 1/F^2
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        g = metric_at(m, np.array([0.2, 0.0]))
        assert g[0, 0] == pytest.approx(1.0 / 1.01**2, abs=1e-15)
        assert g[0, 0] == pytest.approx(0.9802960494069208, abs=1e-15)

    def test_out_of_domain_raises(self):
        m = space_form_chart(SpaceFormSpec(2, 0, -4.0))  # F = 1 - |x|^2
        with pytest.raises(OutOfDomain):
            metric_at(m, np.array([1.5, 0.0]))

    def test_degenerate_metric_raises(self):
        m = ChartedMetric(dim=2, index=0, metric_fn=lambda x: np.diag([1.0, x[0]]))
        with pytest.raises(DegenerateMetric):
            signature_at(m, np.array([0.0, 0.3]))
        with pytest.raises(DegenerateMetric):
            christoffel_at(m, np.array([0.0, 0.3]))

    def test_asymmetric_metric_rejected(self):
        bad = ChartedMetric(dim=2, index=0, metric_fn=lambda x: np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(DegenerateMetric):
            metric_at(bad, np.zeros(2))

    def test_nan_metric_rejected(self):
        bad = ChartedMetric(dim=2, index=0, metric_fn=lambda x: np.full((2, 2), np.nan))
        with pytest.raises(DegenerateMetric):
            metric_at(bad, np.zeros(2))

    def test_asymmetry_within_tolerance_accepted(self):
        # not exactly symmetric: decided by the allclose fallback, as before
        g = np.array([[1.0, 0.5], [0.5 + 2.0**-53, 1.0]])
        assert g[0, 1] != g[1, 0]
        m = ChartedMetric(dim=2, index=0, metric_fn=lambda x: g)
        assert metric_at(m, np.zeros(2)) is g

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2))
    def test_metric_symmetric_and_signature(self, coords):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        x = np.asarray(coords)
        if not m.domain_fn(x):
            return
        g = metric_at(m, x)
        assert np.allclose(g, g.T, atol=1e-14)
        assert signature_at(m, x) == (1, 1)


class TestChristoffel:
    def test_flat_zero(self, flat2):
        assert np.allclose(christoffel_at(flat2, np.array([0.1, -0.2])), 0.0)

    def test_space_form_zero_at_origin(self):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        assert np.abs(christoffel_at(m, np.zeros(3))).max() < 1e-15

    def test_against_fd_oracle_space_form(self):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        x = np.array([0.2, 0.1])
        diff = christoffel_at(m, x) - fd_christoffel(m.metric_fn, x)
        assert np.abs(diff).max() < 1e-6

    def test_against_fd_oracle_generic_chart(self, rng):
        m = bumpy_chart(3, 1, seed=5)
        for _ in range(5):
            x = sample_domain_point(m, rng, box=0.4)
            diff = christoffel_at(m, x) - fd_christoffel(m.metric_fn, x)
            assert np.abs(diff).max() < 1e-6

    def test_lower_index_symmetry_exact(self, rng):
        m = bumpy_chart(2, 0, seed=1)
        x = sample_domain_point(m, rng, box=0.4)
        gamma = christoffel_at(m, x)
        assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))

    def test_metric_compatibility(self, rng):
        # d_k g_ij - Gamma^m_ki g_mj - Gamma^m_kj g_im = 0
        for m, tol in [(space_form_chart(SpaceFormSpec(3, 1, -1.0)), 1e-9), (bumpy_chart(2, 0, 3), 1e-9)]:
            x = sample_domain_point(m, rng, box=0.4)
            g = metric_at(m, x)
            dg = metric_deriv1_at(m, x)
            gamma = christoffel_at(m, x)
            nabla_g = (
                dg
                - np.einsum("mki,mj->kij", gamma, g)
                - np.einsum("mkj,im->kij", gamma, g)
            )
            assert np.abs(nabla_g).max() < tol

    def test_fd_fallback_matches_analytic(self, rng):
        spec = SpaceFormSpec(2, 0, 1.0)
        m = space_form_chart(spec)
        m_fd = ChartedMetric(dim=2, index=0, metric_fn=m.metric_fn, domain_fn=m.domain_fn)
        assert m_fd.uses_fd_derivatives
        x = sample_domain_point(m, rng)
        diff = christoffel_at(m, x) - christoffel_at(m_fd, x)
        assert np.abs(diff).max() < 1e-6


class TestRiemann:
    def test_flat_zero(self, flat2):
        assert np.allclose(riemann_at(flat2, np.array([0.4, 0.4])), 0.0)

    def test_space_form_pattern(self, rng):
        # R(X, u)u = eps c X for g(u, u) = eps and X g-orthogonal to u
        from sasakigeo.sampling import sample_fiber_vector

        for nu, eps, c in [(0, 1, 1.0), (1, -1, -1.0), (1, 1, 2.0)]:
            m = space_form_chart(SpaceFormSpec(3, nu, c))
            x = sample_domain_point(m, rng)
            u = sample_fiber_vector(m, x, eps, rng)
            g = metric_at(m, x)
            w = rng.normal(size=3)
            w = w - eps * float(w @ g @ u) * u
            got = np.einsum("iabc,a,b,c->i", riemann_at(m, x), w, u, u)
            assert np.abs(got - eps * c * w).max() < 1e-8

    @pytest.mark.parametrize("nu, eps", [(0, 1), (1, 1), (1, -1)])
    @pytest.mark.parametrize("c", [1.0, -1.0, 2.0])
    def test_operator_index_order_on_space_forms(self, rng, nu, eps, c):
        # r[i, a, b, c] is the i-part of R(e_a, e_b)e_c: R(X, Y)Z = c(g(Y, Z)X - g(X, Z)Y)
        from sasakigeo.sampling import sample_fiber_vector

        m = space_form_chart(SpaceFormSpec(3, nu, c))
        x = sample_domain_point(m, rng)
        g = metric_at(m, x)
        xv, yv, zv = rng.normal(size=3), rng.normal(size=3), sample_fiber_vector(m, x, eps, rng)
        got = np.einsum("iabc,a,b,c->i", riemann_at(m, x), xv, yv, zv)
        assert np.abs(got - c * (float(yv @ g @ zv) * xv - float(xv @ g @ zv) * yv)).max() < 1e-8
        assert np.abs(fd_riemann(lambda y: christoffel_at(m, y), x) - riemann_at(m, x)).max() < 1e-5

    def test_symmetries_analytic(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        x = sample_domain_point(m, rng)
        rl = lower_riemann(m, x, riemann_at(m, x))
        assert np.abs(rl + np.einsum("dabc->dbac", rl)).max() < 1e-10
        assert np.abs(rl + np.einsum("dabc->cabd", rl)).max() < 1e-10
        assert np.abs(rl - np.einsum("dabc->adcb", rl)).max() < 1e-10
        r = riemann_at(m, x)
        assert np.abs(r + np.einsum("ibca->iabc", r) + np.einsum("icab->iabc", r)).max() < 1e-10

    def test_against_fd_oracle_generic_chart(self, rng):
        m = bumpy_chart(2, 0, seed=7)
        x = sample_domain_point(m, rng, box=0.4)
        fd = fd_riemann(lambda y: christoffel_at(m, y), x)
        assert np.abs(riemann_at(m, x) - fd).max() < 1e-5


class TestNablaRiemann:
    def test_flat_exactly_zero(self, flat2):
        x = np.array([0.2, -0.1])
        d = np.array([1.0, 2.0])
        assert np.array_equal(np.einsum("m,mijkl->ijkl", d, nabla_riemann_full(flat2, x)), np.zeros((2, 2, 2, 2)))

    def test_space_form_locally_symmetric(self, rng):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        x = sample_domain_point(m, rng)
        d = rng.normal(size=2)
        assert np.allclose(np.einsum("m,mijkl->ijkl", d, nabla_riemann_full(m, x)), 0.0)
        # without the short-circuit flag the FD path must still see ~0
        m_general = ChartedMetric(
            dim=2, index=0, metric_fn=m.metric_fn, deriv1_fn=m.deriv1_fn,
            deriv2_fn=m.deriv2_fn, domain_fn=m.domain_fn,
        )
        assert np.abs(np.einsum("m,mijkl->ijkl", d, nabla_riemann_full(m_general, x))).max() < 1e-6

    def test_second_bianchi_generic_chart(self, rng):
        m = bumpy_chart(2, 0, seed=11)
        x = sample_domain_point(m, rng, box=0.35)
        full = nabla_riemann_full(m, x)  # [m, i, a, b, c]
        cyc = full + np.einsum("bimac->miabc", full) + np.einsum("aibmc->miabc", full)
        assert np.abs(full).max() > 1e-3  # genuinely non-symmetric chart
        assert np.abs(cyc).max() < 1e-5


class TestSectionalCurvature:
    def test_flat_zero(self, flat2, rng):
        x = np.zeros(2)
        xv, yv = sample_tangent_plane(flat2, x, rng)
        assert sectional_curvature(flat2, x, xv, yv) == pytest.approx(0.0, abs=1e-12)

    def test_space_form_value(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 0, 2.5))
        x = sample_domain_point(m, rng)
        xv, yv = sample_tangent_plane(m, x, rng)
        assert sectional_curvature(m, x, xv, yv) == pytest.approx(2.5, abs=1e-8)

    def test_indefinite_plane(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        x = sample_domain_point(m, rng)
        g = metric_at(m, x)
        for _ in range(100):
            xv = rng.normal(size=3)
            if float(xv @ g @ xv) < -0.1:
                break
        yv = rng.normal(size=3)
        K = sectional_curvature(m, x, xv, yv)
        assert K == pytest.approx(-1.0, abs=1e-8)

    def test_basis_change_invariance(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        mb = bumpy_chart(3, 0, seed=2)
        for chart in (m, mb):
            x = sample_domain_point(chart, rng, box=0.35)
            xv, yv = sample_tangent_plane(chart, x, rng)
            k0 = sectional_curvature(chart, x, xv, yv)
            a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
            xv2 = a[0, 0] * xv + a[0, 1] * yv
            yv2 = a[1, 0] * xv + a[1, 1] * yv
            assert sectional_curvature(chart, x, xv2, yv2) == pytest.approx(k0, abs=1e-8)

    def test_degenerate_plane_raises(self, flat2):
        x = np.zeros(2)
        v = np.array([1.0, 0.0])
        with pytest.raises(DegeneratePlane):
            sectional_curvature(flat2, x, v, v)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_plane_test_is_scale_free(self, scale):
        # a Gram determinant scales with g^2; the degeneracy test must not
        m = ChartedMetric(2, 0, lambda x: scale * np.eye(2), name="scaled flat")
        x = np.zeros(2)
        plane = sample_tangent_plane(m, x, np.random.default_rng(3))
        assert np.array_equal(plane, sample_tangent_plane(flat_chart(2, 0), x, np.random.default_rng(3)))
        assert sectional_curvature(m, x, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DegeneratePlane):
            sectional_curvature(m, x, np.array([1.0, 0.0]), np.array([1.0, 1e-5]))


class TestSignature:
    def test_euclidean(self):
        m = flat_chart(3, 0)
        assert signature_at(m, np.zeros(3)) == (3, 0)

    def test_lorentzian_space_form(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, 0.5))
        assert signature_at(m, sample_domain_point(m, rng)) == (2, 1)


class TestSpaceFormChart:
    @pytest.mark.parametrize("n,nu,c", [(2, 0, 0.0), (2, 0, 1.0), (3, 1, -1.0), (3, 0, 2.5), (2, 1, 1.0)])
    def test_validation(self, n, nu, c):
        spec = SpaceFormSpec(n, nu, c)
        m = space_form_chart(spec)
        dev = validate_space_form(m, spec, np.random.default_rng(1), num_points=10)
        assert dev < 1e-8

    def test_validation_rejects_nan_curvature(self):
        spec = SpaceFormSpec(2, 0, 1.0)
        m = space_form_chart(spec)
        m.deriv2_fn = lambda x: np.full((2, 2, 2, 2), np.nan)
        with pytest.raises(DegenerateMetric):
            validate_space_form(m, spec, np.random.default_rng(1))

    def test_flat_spec_is_euclidean(self):
        m = space_form_chart(SpaceFormSpec(2, 0, 0.0))
        assert np.allclose(metric_at(m, np.array([0.3, -0.4])), np.eye(2))

    def test_analytic_derivatives_match_fd(self, rng):
        m = space_form_chart(SpaceFormSpec(3, 1, -1.0))
        x = sample_domain_point(m, rng)
        h = 1e-5
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (m.metric_fn(x + e) - m.metric_fn(x - e)) / (2 * h)
            assert np.abs(m.deriv1_fn(x)[k] - fd).max() < 1e-9


def _pass_charts():
    """A space form, a generic analytic chart and a chart without analytic derivatives."""
    spec = SpaceFormSpec(3, 1, 2.0)
    return {
        "space form": space_form_chart(spec),
        "bumpy": bumpy_chart(3, 1),
        "no derivatives": replace(space_form_chart(spec), deriv1_fn=None, deriv2_fn=None),
    }


def _two_step_riemann(m, x):
    """R from Gamma and d Gamma, each read from the chart on its own (the reference)."""
    gamma = christoffel_at(m, x)
    if m.uses_fd_derivatives:
        dgamma = partials(lambda y: christoffel_at(m, y), x, FD_STEP_SECOND)
    else:
        g, dg = metric_at(m, x), metric_deriv1_at(m, x)
        ddg = np.asarray(m.deriv2_fn(x), dtype=float)
        ginv = np.linalg.inv(g)
        dginv = -np.einsum("im,cmn,nl->cil", ginv, dg, ginv)
        t = np.einsum("jlk->ljk", dg) + np.einsum("kjl->ljk", dg) - dg
        dt = np.einsum("calb->clab", ddg) + np.einsum("cbal->clab", ddg) - np.einsum("clab->clab", ddg)
        dgamma = 0.5 * (np.einsum("cil,lab->ciab", dginv, t) + np.einsum("il,clab->ciab", ginv, dt))
    return (
        np.einsum("aibc->iabc", dgamma)
        - np.einsum("biac->iabc", dgamma)
        + np.einsum("iam,mbc->iabc", gamma, gamma)
        - np.einsum("ibm,mac->iabc", gamma, gamma)
    )


class TestOnePassCurvature:
    """``riemann_at`` reads g, g' and g'' once and inverts g once; the values do not move."""

    @pytest.mark.parametrize("chart", ["space form", "bumpy", "no derivatives"])
    def test_riemann_equals_the_two_step_reference_bit_for_bit(self, rng, chart):
        m = _pass_charts()[chart]
        for _ in range(3):
            x = sample_domain_point(m, rng, box=0.4)
            assert np.array_equal(riemann_at(m, x), _two_step_riemann(m, x))

    def test_nabla_riemann_equals_the_two_step_reference_bit_for_bit(self, rng):
        m = bumpy_chart(3, 1)
        x = sample_domain_point(m, rng, box=0.4)
        gamma, r = christoffel_at(m, x), riemann_at(m, x)
        ref = (
            partials(lambda y: riemann_at(m, y), x, FD_STEP_FIRST)
            + np.einsum("imp,pjkl->mijkl", gamma, r)
            - np.einsum("pmj,ipkl->mijkl", gamma, r)
            - np.einsum("pmk,ijpl->mijkl", gamma, r)
            - np.einsum("pml,ijkp->mijkl", gamma, r)
        )
        assert np.array_equal(nabla_riemann_full(m, x), ref)

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_one_read_of_each_chart_callable(self, rng, chart):
        m = _pass_charts()[chart]
        calls = {"metric_fn": 0, "deriv1_fn": 0, "deriv2_fn": 0}

        def counted(name):
            fn = getattr(m, name)

            def wrapped(x):
                calls[name] += 1
                return fn(x)

            return wrapped

        counting = replace(m, **{name: counted(name) for name in calls})
        x = sample_domain_point(m, rng, box=0.4)
        r = riemann_at(counting, x)
        assert calls == {"metric_fn": 1, "deriv1_fn": 1, "deriv2_fn": 1}
        assert np.array_equal(r, riemann_at(m, x))

    def test_one_inversion_per_call(self, monkeypatch, rng):
        m = bumpy_chart(3, 1)
        inversions = []
        real = np.linalg.inv

        def counted(a):
            inversions.append(1)
            return real(a)

        monkeypatch.setattr(manifold.np.linalg, "inv", counted)
        riemann_at(m, sample_domain_point(m, rng, box=0.4))
        assert len(inversions) == 1

    @pytest.mark.parametrize("chart", ["space form", "bumpy", "no derivatives"])
    def test_stacked_pass_equals_per_row_passes_bit_for_bit(self, rng, chart):
        m = _pass_charts()[chart]
        xs = np.array([sample_domain_point(m, rng, box=0.4) for _ in range(6)]).reshape(2, 3, m.dim)
        stacked = manifold._curvature_pass(m, xs)
        for idx in np.ndindex(2, 3):
            for a, b in zip(stacked, manifold._curvature_pass(m, xs[idx])):
                assert np.array_equal(a[idx], b)

    @pytest.mark.parametrize("given", [False, True], ids=["alone", "with the point's curvature"])
    def test_nabla_riemann_inverts_once_and_reads_each_callable_per_stencil_row(self, monkeypatch, rng, given):
        # alone, x is row 0 of the pass; with the (Gamma, R) already held at x, only the 2n stencil rows are read
        m = bumpy_chart(3, 1)
        x = sample_domain_point(m, rng, box=0.4)
        curvature = manifold._curvature_pass(m, x)[1:] if given else None
        rows = 2 * m.dim + (0 if given else 1)
        calls = {"metric_fn": 0, "deriv1_fn": 0, "deriv2_fn": 0}

        def counted(name):
            fn = getattr(m, name)

            def wrapped(y):
                calls[name] += 1
                return fn(y)

            return wrapped

        counting = replace(m, **{name: counted(name) for name in calls})
        inversions = []
        real = np.linalg.inv

        def counted_inv(a):
            inversions.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(manifold.np.linalg, "inv", counted_inv)
        nabla_riemann_full(counting, x, curvature)
        assert inversions == [(rows, m.dim, m.dim)]
        assert calls == dict.fromkeys(calls, rows)

    @pytest.mark.parametrize("chart", ["bumpy", "no derivatives"])
    @pytest.mark.parametrize("n,nu", [(2, 0), (3, 1)])
    def test_nabla_riemann_takes_the_same_bits_with_and_without_the_points_curvature(self, rng, chart, n, nu):
        m = bumpy_chart(n, nu, seed=4)
        if chart == "no derivatives":
            m = replace(m, deriv1_fn=None, deriv2_fn=None)
        for _ in range(3):
            x = sample_domain_point(m, rng, box=0.4)
            _, gamma, r = manifold._curvature_pass(m, x, metric_at(m, x))
            assert np.array_equal(nabla_riemann_full(m, x, (gamma, r)), nabla_riemann_full(m, x))

    @pytest.mark.parametrize("n,nu,c", [(2, 0, 1.0), (3, 1, -1.0), (3, 0, 2.5)])
    def test_validation_computes_r_once_per_point(self, monkeypatch, n, nu, c):
        spec = SpaceFormSpec(n, nu, c)
        m = space_form_chart(spec)
        # the reference: each plane's sectional curvature on its own, as before
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            x = sample_domain_point(m, rng)
            for _ in range(manifold.SPACE_FORM_PLANES):
                xv, yv = sample_tangent_plane(m, x, rng)
                worst = max(worst, abs(sectional_curvature(m, x, xv, yv) - c))
        shapes = []
        real = manifold._curvature_pass

        def counted(chart, x, g=None):
            shapes.append(np.shape(x))
            return real(chart, x, g)

        monkeypatch.setattr(manifold, "_curvature_pass", counted)
        assert validate_space_form(m, spec, np.random.default_rng(5), num_points=10) == worst
        assert shapes == [(10, n)]  # one pass over the stack of the 10 points
