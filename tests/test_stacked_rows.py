"""The stacked kernels of the sampled contact checks against their one-row cases.

``axioms`` and ``sasakian`` draw their samples in one call and contract all
rows at once.  ``sample_sb_parts`` must draw what that many ``sample_sb_vec``
calls draw, bit for bit, and leave the generator where they leave it; the
stacked rows of the lift pairs, of the oracle's lift components, of nabla
phi and of the contact tensors must equal their one-row cases bit for bit.
The nabla phi tensor is checked against the per-vector formula it replaced
(to 1e-13, relative), and the one-row contact tensors against the scalar
formulas they replaced (bit for bit).  Each is checked on a space form and
on a chart that is not locally symmetric, at n = 2 and 3 and both eps.
"""

import math

import numpy as np
import pytest

from sasakigeo import contact
from sasakigeo.contact import contact_data_at, nabla_phi
from sasakigeo.manifold import SpaceFormSpec, space_form_chart
from sasakigeo.oracle import base_jet, sb_lift_field_fn
from sasakigeo.sampling import sample_sb_parts, sample_sb_point, sample_sb_vec
from sasakigeo.sphere import SBVec, contract, lift, point_geometry

from conftest import bumpy_chart

CASES = [(chart, n, eps) for chart in ("space form", "bumpy") for n in (2, 3) for eps in (1, -1)]


def _point(chart, n, eps, seed=11):
    m = space_form_chart(SpaceFormSpec(n, 1, 2.0)) if chart == "space form" else bumpy_chart(n, 1)
    rng = np.random.default_rng(seed)
    return m, sample_sb_point(m, eps, rng), rng


def _assert_close(stacked, single):
    assert stacked.shape == single.shape
    assert np.abs(stacked - single).max() <= 1e-13 * np.abs(single).max()


def _vec(p, row):
    n = row.size // 2
    return SBVec(p, row[:n], row[n:])


@pytest.mark.parametrize("chart,n,eps", CASES)
@pytest.mark.parametrize("count", [1, 5, 24])
def test_the_stacked_draw_is_the_per_vector_draws(chart, n, eps, count):
    m, p, _ = _point(chart, n, eps)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rows = sample_sb_parts(m, p, rng, count)
    ref = np.array([sample_sb_vec(m, p, ref_rng).comps() for _ in range(count)])
    assert rows.shape == (count, 2 * n) and rows.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_lift_pairs_are_the_per_pair_lifts_and_lift_fields(chart, n, eps):
    m, p, _ = _point(chart, n, eps)
    z0 = np.concatenate([p.x, p.u])
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    a, b, a0, b0 = contact._lift_pairs(m, p, rng, 9)
    for k in range(9):  # the per-pair loop the stacked draw replaces
        kx, ky = contact._LIFT_KINDS[k % 4]
        xc, yc = ref_rng.normal(size=n), ref_rng.normal(size=n)
        assert np.array_equal(a[k], lift(m, p, kx, xc).comps()) and np.array_equal(b[k], lift(m, p, ky, yc).comps())
        assert np.array_equal(a0[k], sb_lift_field_fn(m, xc, kx, eps)(z0))
        assert np.array_equal(b0[k], sb_lift_field_fn(m, yc, ky, eps)(z0))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("chart,n,eps", CASES)
@pytest.mark.parametrize("kind", ["h", "t"])
def test_the_oracle_lift_components_are_the_field_values(chart, n, eps, kind):
    m, p, rng = _point(chart, n, eps)
    z0 = np.concatenate([p.x, p.u])
    xs = rng.normal(size=(6, n))
    stacked = sb_lift_field_fn(m, xs, kind, eps)(z0)  # a constant stack of base vectors, one field value per row
    assert stacked.shape == (6, 2 * n)
    for x, row in zip(xs, stacked):
        single = sb_lift_field_fn(m, x, kind, eps)(z0)
        assert np.array_equal(row, single) and np.array_equal(single, _per_vector_lift(m, z0, kind, x, eps))


def _per_vector_lift(m, z0, kind, x, eps):
    """A lift field's value at z0 as the per-vector formulas wrote it before ``_h_lift`` and ``_t_lift``."""
    n = m.dim
    jet, u = base_jet(m, z0[:n]), z0[n:]
    if kind == "h":
        return np.concatenate([x, -np.einsum("iab,a,b->i", jet.gamma, x, u)])
    return np.concatenate([np.zeros(n), x - eps * float(x @ jet.g @ u) * u])


def _nabla_phi_per_vector(m, p, a, b):
    """(nabla-bar_a phi) b as the per-vector formula wrote it before the tensor N existed:
    a(PHI) b = (-a(P) Z, a(P) Y) with a(P) y = -eps (W g(u, y) + u g(W, y)), plus
    Gamma-bar(a, PHI b) - PHI Gamma-bar(a, b), the t part projected by P."""
    geo = point_geometry(m, p)
    n, u, eps = m.dim, p.u, p.eps
    w, gw = a[n:], geo.base.g @ a[n:]
    conn, phi = geo.connection, geo.phi_parts

    def a_p(y):
        return -eps * (w * float(geo.gu @ y) + u * float(gw @ y))

    out = np.concatenate([-a_p(b[n:]), a_p(b[:n])])
    out += (conn @ (phi @ b)) @ a - phi @ ((conn @ b) @ a)
    out[n:] = geo.proj @ out[n:]
    return out


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_nabla_phi_tensor_is_the_per_vector_formula(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    a, b = sample_sb_parts(m, p, rng, 10), sample_sb_parts(m, p, rng, 10)
    lifts = [lift(m, p, kind, rng.normal(size=n)).comps() for kind in ("h", "t", "h", "t")]
    a, b = np.vstack([a, lifts[:2], lifts[2:]]), np.vstack([b, lifts[1::2], lifts[::2]])  # hh, ht, th, tt too
    stacked = contract(point_geometry(m, p).nabla_phi_parts, a, b)
    _assert_close(stacked, np.array([_nabla_phi_per_vector(m, p, x, y) for x, y in zip(a, b)]))


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_stacked_nabla_phi_and_contact_tensors_are_the_per_vector_values(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    data = contact_data_at(m, p)
    a, b = sample_sb_parts(m, p, rng, 10), sample_sb_parts(m, p, rng, 10)
    stacked = contract(point_geometry(m, p).nabla_phi_parts, a, b)
    assert np.array_equal(stacked, np.array([nabla_phi(m, p, _vec(p, x), _vec(p, y)).comps() for x, y in zip(a, b)]))
    assert np.array_equal(data.phi_rows(a), np.array([data.phi(_vec(p, x)).comps() for x in a]))
    assert np.array_equal(data.eta_rows(a), np.array([data.eta(_vec(p, x)) for x in a]))
    assert np.array_equal(data.gcm_rows(a, b), np.array([data.gcm(_vec(p, x), _vec(p, y)) for x, y in zip(a, b)]))


def _per_vector_contact(data, x, y):
    """eta(x), phi(x) and g_cm(x, y) as the per-vector formulas wrote them before the stacked kernels."""
    geo, n = data.geo, data.at.u.size
    eta = 0.5 * data.at.eps * float(x[:n] @ geo.base.g @ data.at.u)
    return eta, geo.phi_parts @ x, 0.25 * float(x @ geo.gbar @ y)


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_one_row_contact_tensors_keep_the_per_vector_bits(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    data = contact_data_at(m, p)
    for _ in range(10):
        x, y = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
        eta, phi, gcm = _per_vector_contact(data, x.comps(), y.comps())
        assert data.eta(x) == eta and np.array_equal(data.phi(x).comps(), phi) and data.gcm(x, y) == gcm


def test_a_nan_row_stays_in_its_row():
    m, p, rng = _point("bumpy", 3, -1)
    a, b = sample_sb_parts(m, p, rng, 6), sample_sb_parts(m, p, rng, 6)
    a[3, 1] = math.nan
    out = contract(point_geometry(m, p).nabla_phi_parts, a, b)
    assert np.isnan(out[3]).all() and np.isfinite(np.delete(out, 3, axis=0)).all()
