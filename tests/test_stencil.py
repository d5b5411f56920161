"""The central-difference stencil and the finite-difference paths built on it."""

import numpy as np
import pytest

from sasakigeo.manifold import ChartedMetric, SpaceFormSpec, christoffel_at, riemann_at, space_form_chart
from sasakigeo.oracle import base_gamma
from sasakigeo.sampling import sample_domain_point
from sasakigeo.stencil import FD_STEP_FIRST, central_difference, jacobian, partials, points, quotient

A = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.5]])
Q = np.array([[[2.0, 0.5, 0.0], [0.5, -1.0, 0.3], [0.0, 0.3, 4.0]],
              [[1.0, 0.0, -0.7], [0.0, 0.0, 0.2], [-0.7, 0.2, 0.5]]])


def quad(z):
    """f^i(z) = A^i_j z^j + Q^i_jk z^j z^k / 2, with d_j f^i = A^i_j + Q^i_jk z^k."""
    return A @ z + 0.5 * np.einsum("ijk,j,k->i", Q, z, z)


def quad_jac(z):
    return A + np.einsum("ijk,k->ij", Q, z)


Z = np.array([0.3, -1.2, 0.8])


def _coordinate_differences(fn, z, step):
    """Reference: ``out[k] = fn(z + step e_k) - fn(z - step e_k)``, one coordinate at a time."""
    out = []
    for k in range(z.size):
        e = np.zeros(z.size)
        e[k] = step
        out.append(np.asarray(fn(z + e)) - np.asarray(fn(z - e)))
    return np.array(out)


class TestStencil:
    def test_exact_on_a_quadratic(self):
        assert np.abs(jacobian(quad, Z, 1e-3) - quad_jac(Z)).max() < 1e-12
        assert np.abs(partials(quad, Z, 1e-3) - quad_jac(Z).T).max() < 1e-12

    def test_axis_conventions(self):
        # partials puts the derivative index first; jacobian puts it last
        assert partials(quad, Z, FD_STEP_FIRST).shape == (3, 2)
        jac = jacobian(quad, Z, FD_STEP_FIRST)
        assert jac.shape == (2, 3)
        assert np.array_equal(jac, partials(quad, Z, FD_STEP_FIRST).T)
        matrix_valued = partials(lambda z: np.outer(z, z), Z, FD_STEP_FIRST)
        assert matrix_valued.shape == (3, 3, 3)  # [k, i, j] = d_k (z_i z_j)

    def test_jacobian_is_c_contiguous(self):
        # a transposed view would change the rounding of the matmuls it feeds
        assert jacobian(quad, Z, FD_STEP_FIRST).flags.c_contiguous

    @pytest.mark.parametrize("k", range(3))
    def test_central_difference_is_a_row_of_partials(self, k):
        along = central_difference(quad, Z, np.eye(3)[k], FD_STEP_FIRST)
        assert np.array_equal(along, partials(quad, Z, FD_STEP_FIRST)[k])

    def test_points_are_the_plus_rows_then_the_minus_rows(self):
        rows = points(Z, 1e-3)
        assert rows.shape == (6, 3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-3
            assert np.array_equal(rows[k], Z + e) and np.array_equal(rows[3 + k], Z - e)

    @pytest.mark.parametrize("fn", [quad, lambda z: np.outer(z, np.sin(z))])
    @pytest.mark.parametrize("step", [FD_STEP_FIRST, 1e-3])
    def test_points_and_quotient_reproduce_the_coordinate_stencil(self, fn, step):
        ref = _coordinate_differences(fn, Z, step) / (2.0 * step)
        stacked = quotient(np.array([fn(row) for row in points(Z, step)]), step)
        assert np.array_equal(stacked, ref) and np.array_equal(partials(fn, Z, step), ref)
        if ref.ndim == 2:
            assert np.array_equal(jacobian(fn, Z, step), ref.T)

    def test_directional_derivative_of_a_scalar(self):
        v = np.array([1.0, 2.0, -0.5])
        got = central_difference(lambda z: float(quad(z)[0]), Z, v, 1e-3)
        assert got == pytest.approx(float(quad_jac(Z)[0] @ v), abs=1e-12)


def _without_derivatives(m: ChartedMetric) -> ChartedMetric:
    return ChartedMetric(dim=m.dim, index=m.index, metric_fn=m.metric_fn, domain_fn=m.domain_fn)


SPACE_FORMS = [(2, 0, 1.0), (2, 1, -1.0), (3, 0, 2.0), (3, 1, 1.0), (3, 1, -3.0 + 2.0 * np.sqrt(2.0))]


class TestFiniteDifferencePaths:
    @pytest.mark.parametrize("n,nu,c", SPACE_FORMS)
    def test_riemann_at_without_derivatives_matches_analytic(self, n, nu, c):
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        m_fd = _without_derivatives(m)
        assert m_fd.uses_fd_derivatives
        rng = np.random.default_rng(31)
        for _ in range(4):
            x = sample_domain_point(m, rng)
            assert np.abs(riemann_at(m_fd, x) - riemann_at(m, x)).max() < 1e-5

    @pytest.mark.parametrize("n,nu,c", SPACE_FORMS)
    def test_oracle_base_gamma_without_derivatives_matches_analytic(self, n, nu, c):
        m = space_form_chart(SpaceFormSpec(n, nu, c))
        m_fd = _without_derivatives(m)
        rng = np.random.default_rng(32)
        for _ in range(4):
            x = sample_domain_point(m, rng)
            assert np.abs(base_gamma(m_fd, x) - christoffel_at(m, x)).max() < 1e-8
