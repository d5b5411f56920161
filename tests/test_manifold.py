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
    base_context,
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
from sasakigeo.sampling import sample_domain_point, sample_fiber_vector, sample_sb_vec, sample_tangent_plane
from sasakigeo.sphere import point_geometry, sb_curvature, sb_point
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

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_metric_rejected(self, entry):
        g = np.array([[entry, 0.0], [0.0, 1.0]])  # symmetric, so only the finiteness guard catches inf
        bad = ChartedMetric(dim=2, index=0, metric_fn=lambda x: g)
        for read in (metric_at, signature_at, christoffel_at):
            with pytest.raises(DegenerateMetric):
                read(bad, np.zeros(2))

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


def _five_point_nabla_riemann(m, x):
    """nabla R from the fourth-order five-point difference of ``riemann_at`` (the accuracy reference).

    At step 1e-3 its own error, measured against its Richardson extrapolation
    with step 2e-3, is at most 7e-13 on the charts below, under the errors
    it separates (1.6e-11 to 4.8e-11).
    """

    step = 1e-3

    def at(k, s):
        y = x.copy()
        y[k] += s * step
        return riemann_at(m, y)

    dr = np.array([(8.0 * (at(k, 1) - at(k, -1)) - (at(k, 2) - at(k, -2))) / (12.0 * step) for k in range(m.dim)])
    return _corrected(m, x, dr)


ACCURACY_CHARTS = [(n, nu, seed) for n in (2, 3) for nu in (0, 1) for seed in (0, 1)]
# Both schemes carry an O(h^2) truncation of one size with h = FD_STEP_FIRST: over bumpy charts of
# seeds 0-9 the closed-form scheme's worst error per chart is 0.2-4.1 times the R stencil's (median
# pointwise ratio 1.0), so the bound holds it to the R stencil's order with a margin of about 2.
ACCURACY_FACTOR = 10.0
# Over the same 40 charts: second Bianchi residual at most 7.0e-10 at n = 3, (c, d) antisymmetry at
# most 2.2e-11 (the R stencil gives up to 9.2e-10 for it); the bounds leave a margin of about 3 and 4.5.
BIANCHI_BOUND = 2e-9
ANTISYMMETRY_BOUND = 1e-10


def _bianchi_residual(full):
    """max |(nabla_m R)(a, b) + (nabla_a R)(b, m) + (nabla_b R)(m, a)| over all components."""
    return np.abs(full + np.einsum("bimac->miabc", full) + np.einsum("aibmc->miabc", full)).max()


def _antisymmetry_residual(m, x, full):
    """max |g(nabla_m R(a, b)c, d) + g(nabla_m R(a, b)d, c)|."""
    low = np.einsum("pd,mpabc->mabcd", metric_at(m, x), full)
    return np.abs(low + np.swapaxes(low, 3, 4)).max()


class TestNablaRiemannAccuracy:
    """The closed-form nabla R on generic charts, measured against references and identities."""

    @pytest.mark.parametrize("n,nu,seed", ACCURACY_CHARTS)
    def test_error_is_of_the_r_stencils_order(self, n, nu, seed):
        m = bumpy_chart(n, nu, seed=seed)
        rng = np.random.default_rng(seed)
        new_err, old_err = [], []
        for _ in range(3):
            x = sample_domain_point(m, rng, box=0.4)
            ref = _five_point_nabla_riemann(m, x)
            new_err.append(np.abs(nabla_riemann_full(m, x) - ref).max())
            old_err.append(np.abs(_fd_of_r_nabla_riemann(m, x) - ref).max())
        assert max(new_err) <= ACCURACY_FACTOR * max(old_err)

    # at n = 2 two of m, a, b coincide, and the cyclic sum is the antisymmetry in (a, b) that holds by construction
    @pytest.mark.parametrize("n,nu,seed", [chart for chart in ACCURACY_CHARTS if chart[0] == 3])
    def test_second_bianchi_at_rounding_level(self, n, nu, seed):
        m = bumpy_chart(n, nu, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            full = nabla_riemann_full(m, sample_domain_point(m, rng, box=0.4))
            assert np.abs(full).max() > 1e-3  # a genuinely non-symmetric chart, so the identity is not 0 = 0
            assert _bianchi_residual(full) < BIANCHI_BOUND

    @pytest.mark.parametrize("n,nu,seed", ACCURACY_CHARTS)
    def test_lowered_nabla_riemann_antisymmetric_in_its_last_pair(self, n, nu, seed):
        m = bumpy_chart(n, nu, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = sample_domain_point(m, rng, box=0.4)
            assert _antisymmetry_residual(m, x, nabla_riemann_full(m, x)) < ANTISYMMETRY_BOUND


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


def _generic_charts():
    """A generic analytic chart, and the same chart without analytic derivatives."""
    m = bumpy_chart(3, 1)
    return {"bumpy": m, "no derivatives": replace(m, deriv1_fn=None, deriv2_fn=None)}


def _fd_of_r_nabla_riemann(m, x):
    """nabla R from the central difference of ``riemann_at`` on x's stencil (the reference)."""
    return _corrected(m, x, partials(lambda y: riemann_at(m, y), x, FD_STEP_FIRST))


def _corrected(m, x, dr):
    """nabla_m R from d_m R (``dr[m, i, a, b, c]``) and the four Gamma.R corrections at x."""
    gamma, r = christoffel_at(m, x), riemann_at(m, x)
    return (
        dr
        + np.einsum("imp,pjkl->mijkl", gamma, r)
        - np.einsum("pmj,ipkl->mijkl", gamma, r)
        - np.einsum("pmk,ijpl->mijkl", gamma, r)
        - np.einsum("pml,ijkp->mijkl", gamma, r)
    )


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

    @pytest.mark.parametrize("chart", ["bumpy", "no derivatives"])
    def test_nabla_riemann_against_the_fd_of_r_reference(self, rng, chart):
        # analytic g'': d_m R in closed form from one g'' stencil, within FD noise of the R stencil;
        # no derivatives: the R stencil itself, bit for bit
        m = _generic_charts()[chart]
        for _ in range(3):
            x = sample_domain_point(m, rng, box=0.4)
            got, ref = nabla_riemann_full(m, x), _fd_of_r_nabla_riemann(m, x)
            if m.uses_fd_derivatives:
                assert np.array_equal(got, ref)
            else:
                assert np.abs(got - ref).max() < 1e-8 and np.abs(got).max() > 1e-2

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
                assert (a is None and b is None) or np.array_equal(a[idx], b)  # g'' and its terms: None without derivatives

    @pytest.mark.parametrize("chart", ["bumpy", "no derivatives"])
    def test_nabla_riemann_reads_the_chart_at_its_budget(self, monkeypatch, rng, chart):
        # analytic g'': x's jet once, then g'' alone at the 2n stencil rows, and g inverted once;
        # no derivatives: the curvature pass at x and at its 2n rows, (2n + 1)^2 metric reads per pass point
        m, calls = _counting(_generic_charts()[chart])
        n = m.dim
        x = sample_domain_point(m, rng, box=0.4)
        inversions, passes = [], []
        real_inv, real_pass = np.linalg.inv, manifold._curvature_pass

        def counted_inv(a):
            inversions.append(np.shape(a))
            return real_inv(a)

        monkeypatch.setattr(manifold.np.linalg, "inv", counted_inv)
        monkeypatch.setattr(manifold, "_curvature_pass", lambda chart, y, g=None: passes.append(np.shape(y)) or real_pass(chart, y, g))
        nabla_riemann_full(m, x)
        if m.uses_fd_derivatives:
            assert passes == [(n,), (2 * n, n)]
            assert calls == {"metric_fn": (2 * n + 1) ** 3, "deriv1_fn": 0, "deriv2_fn": 0}
        else:
            assert passes == [(n,)] and inversions == [(n, n)]
            assert calls == {"metric_fn": 1, "deriv1_fn": 1, "deriv2_fn": 1 + 2 * n}

    @pytest.mark.parametrize("chart", ["bumpy", "no derivatives"])
    @pytest.mark.parametrize("n,nu", [(2, 0), (3, 1)])
    def test_nabla_riemann_takes_the_same_bits_from_the_base_context(self, rng, chart, n, nu):
        # the context builds nabla R from the pass it ran at x with its kept g; the raw read runs its own
        m = bumpy_chart(n, nu, seed=4)
        if chart == "no derivatives":
            m = replace(m, deriv1_fn=None, deriv2_fn=None)
        for _ in range(3):
            x = sample_domain_point(m, rng, box=0.4)
            context = base_context(m, x)
            assert np.array_equal(context.nabla_r(m), nabla_riemann_full(m, x))
            assert context.nabla_r(m) is context.nabla_r(m)

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
        m = space_form_chart(spec)  # a fresh chart, which keeps no base point yet
        shapes, metric_reads = [], []
        real, real_metric = manifold._curvature_pass, m.metric_fn

        def counted(chart, x, g=None):
            shapes.append((np.shape(x), np.shape(g)))
            return real(chart, x, g)

        monkeypatch.setattr(manifold, "_curvature_pass", counted)
        m.metric_fn = lambda x: metric_reads.append(None) or real_metric(x)
        assert validate_space_form(m, spec, np.random.default_rng(5), num_points=10) == worst
        # g is read once per point, for its planes, and the one pass over the stack of the 10 points takes those g
        assert len(metric_reads) == 10 and shapes == [((10, n), (10, n, n))]


def _counting(m):
    """A chart equal to m whose metric callables count their calls in the returned dict."""
    calls = {"metric_fn": 0, "deriv1_fn": 0, "deriv2_fn": 0}

    def counted(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)

        return wrapped

    wrapped = {name: counted(name, getattr(m, name)) for name in calls if getattr(m, name) is not None}
    return replace(m, **wrapped), calls


class TestBaseContext:
    """The closed-form g, Gamma and R a chart keeps for its latest base points (``base_context``)."""

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_bundle_points_over_one_x_run_one_curvature_pass(self, monkeypatch, rng, chart):
        m, calls = _counting(space_form_chart(SpaceFormSpec(3, 1, 2.0)) if chart == "space form" else bumpy_chart(3, 1))
        x = np.array([0.1, -0.2, 0.15])
        # the eps = +-1 twins, and a second u at eps = +1
        points = [sb_point(m, x, sample_fiber_vector(m, x, eps, rng), eps) for eps in (1, -1, 1)]
        assert calls == {"metric_fn": 1, "deriv1_fn": 0, "deriv2_fn": 0}
        passes = []
        real = manifold._curvature_pass
        monkeypatch.setattr(manifold, "_curvature_pass", lambda chart, y, g=None: passes.append(np.shape(y)) or real(chart, y, g))
        for p in points:
            sb_curvature(m, p, *(sample_sb_vec(m, p, rng) for _ in range(3)))
            base = point_geometry(m, p).base
            assert base is point_geometry(m, points[0]).base
        assert passes == [(3,)]  # one pass at x for all three, and none over a stencil
        # x's g, g' and g'', and on the generic chart g'' at the 6 rows of the one nabla R stencil
        stencil = 0 if chart == "space form" else 2 * m.dim
        assert calls == {"metric_fn": 1, "deriv1_fn": 1, "deriv2_fn": 1 + stencil}
        if chart == "bumpy":
            assert all(point_geometry(m, p).nabla_r is point_geometry(m, points[0]).nabla_r for p in points)

    def test_reassigned_metric_callables_are_seen(self):
        m = space_form_chart(SpaceFormSpec(2, 1, 1.0))
        x = np.array([0.1, 0.2])
        before = base_context(m, x)
        gamma, r = before.curvature(m)
        assert base_context(m, x) is before
        metric, deriv1, deriv2 = m.metric_fn, m.deriv1_fn, m.deriv2_fn
        m.metric_fn = lambda y: 2.0 * metric(y)
        after = base_context(m, x)
        assert after is not before and np.array_equal(after.g, 2.0 * before.g)
        assert signature_at(m, x) == (1, 1)
        m.deriv1_fn = lambda y: 3.0 * deriv1(y)  # Gamma grows by 3/2 with g doubled
        assert np.array_equal(base_context(m, x).curvature(m)[0], christoffel_at(m, x))
        assert not np.array_equal(base_context(m, x).curvature(m)[0], gamma)
        m.deriv2_fn = lambda y: 3.0 * deriv2(y)
        assert np.array_equal(base_context(m, x).curvature(m)[1], riemann_at(m, x))
        assert not np.array_equal(base_context(m, x).curvature(m)[1], r)

    def test_memo_stays_within_its_bound_and_drops_the_least_recently_used(self, rng):
        m, calls = _counting(space_form_chart(SpaceFormSpec(2, 0, 1.0)))
        size = manifold._memo_size(m)
        xs = [rng.uniform(-0.5, 0.5, size=2) for _ in range(3 * size)]
        for x in xs:
            base_context(m, x)
            assert len(m._base_points) <= size
        assert len(m._base_points) == size and calls["metric_fn"] == 3 * size
        base_context(m, xs[-size])  # the oldest kept, now the most recently used
        assert calls["metric_fn"] == 3 * size
        base_context(m, np.array([0.45, 0.45]))  # drops xs[-size + 1]
        base_context(m, xs[-size])
        assert calls["metric_fn"] == 3 * size + 1
        base_context(m, xs[-size + 1])
        assert calls["metric_fn"] == 3 * size + 2

    def test_kept_arrays_are_read_only_and_the_charts_buffer_stays_writable(self, flat2):
        x = np.array([0.3, 0.7])
        buffer = flat2.metric_fn(x)  # the chart returns this one constant array
        context = base_context(flat2, x)
        gamma, r = context.curvature(flat2)
        for kept in (context.g, gamma, r):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[(0,) * kept.ndim] = 1.0
        assert np.shares_memory(context.g, buffer) and buffer.flags.writeable
        assert flat2.metric_fn(x) is buffer and metric_at(flat2, x) is buffer  # metric_at stays a raw read

    def test_an_out_of_domain_x_raises_on_every_call_and_is_never_kept(self, rng):
        m, calls = _counting(space_form_chart(SpaceFormSpec(2, 0, -4.0)))  # F = 1 - |x|^2
        x = np.array([1.5, 0.0])
        for _ in range(2):
            for read in (
                lambda: base_context(m, x),
                lambda: signature_at(m, x),
                lambda: sample_tangent_plane(m, x, rng),
                lambda: sample_fiber_vector(m, x, 1, rng),
            ):
                with pytest.raises(OutOfDomain):
                    read()
        assert m._base_points == {} and calls["metric_fn"] == 0

    def test_equal_but_distinct_charts_do_not_share_contexts(self):
        m = space_form_chart(SpaceFormSpec(2, 0, 1.0))
        twin, calls = _counting(m)
        twin = replace(twin, metric_fn=m.metric_fn, deriv1_fn=m.deriv1_fn, deriv2_fn=m.deriv2_fn)
        assert twin == m and twin is not m
        x = np.array([0.2, -0.1])
        assert base_context(m, x) is not base_context(twin, x)
        assert len(m._base_points) == len(twin._base_points) == 1
        # a chart of another curvature at the same x reads its own g
        other = space_form_chart(SpaceFormSpec(2, 0, -1.0))
        assert not np.array_equal(base_context(other, x).g, base_context(m, x).g)
