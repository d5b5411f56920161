"""The stacked kernels of the sampled contact checks and of the oracle's stencils against their one-row cases.

``axioms`` and ``sasakian`` draw their samples in one call and contract all
rows at once.  ``sample_sb_parts`` must draw what that many ``sample_sb_vec``
calls draw, bit for bit, and leave the generator where they leave it; the
stacked rows of the lift pairs, of the oracle's lift components, of nabla
phi and of the contact tensors must equal their one-row cases bit for bit.
The nabla phi tensor is checked against the per-vector formula it replaced
(to 1e-13, relative), and the one-row contact tensors against the scalar
formulas they replaced (bit for bit).  The oracle's lift fields, evaluated
once on a ``StencilJets``, and ``fd_riemann``'s one stacked Gamma call must
give the per-row stencils' jets and curvature bit for bit.  Each is checked
on a space form and on a chart that is not locally symmetric, at n = 2 and
3 and both eps.

The ``connection``, ``oracle-crosscheck``, ``curvature``, ``phi-sectional``,
``k-contact`` and ``kappa-mu`` rows draw and contract the same way: their
samplers (``sample_ker_eta_parts``, ``contact.lift_draws``) must draw what
the per-call loops drew and leave the generator where they left it, each
stacked kernel's row must equal its one-vector case, and one NaN sample
row must make exactly the checks that read it NaN and failing.  The
(kappa, mu) system and the 2 d eta' row keep the values of the per-sample
formulas they replaced, bit for bit.
"""

import copy

import math
from dataclasses import replace

import numpy as np
import pytest

from sasakigeo import contact, oracle, suites
from sasakigeo.contact import contact_data_at, h_at, nabla_phi, nabla_phi_defn, nabla_xi
from sasakigeo.manifold import SpaceFormSpec, christoffel_at, space_form_chart
from sasakigeo.oracle import (
    base_jet,
    fd_riemann,
    field_jet,
    lift_field_fn,
    read_stencil_jets,
    sasaki_gamma_fn,
    sb_lift_field_fn,
)
from sasakigeo.sampling import sample_ker_eta_parts, sample_ker_eta_vec, sample_sb_parts, sample_sb_point, sample_sb_vec
from sasakigeo.sphere import (
    SBVec,
    contract,
    horizontal_sb,
    induced_metric_at,
    lift,
    point_geometry,
    sb_curvature,
    sb_nabla,
    sb_nabla_rows,
    tangential_lift,
)
from sasakigeo.stencil import FD_STEP_GAMMA, FD_STEP_SECOND, partials
from sasakigeo.suites import SuiteConfig, _poly_field, run_suite

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


def _lift_fields(m, eps, rng):
    """The h-, v- and t-lift fields of a polynomial base field and of a constant vector."""
    n = m.dim
    fields = {}
    for name, base in (("poly", _poly_field(n, rng)), ("const", rng.normal(size=n))):
        fields[name, "h"] = lift_field_fn(m, base, "h")
        fields[name, "v"] = lift_field_fn(m, base, "v")
        fields[name, "t"] = sb_lift_field_fn(m, base, "t", eps)
    return fields


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_a_lift_field_jet_on_the_stacked_rows_is_the_per_row_field_jet(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    z0 = np.concatenate([p.x, p.u])
    jets = read_stencil_jets(m, z0)
    for name, field in _lift_fields(m, eps, rng).items():
        value, jac = jets.field_jet(field)
        ref_value, ref_jac = field_jet(field, z0)
        assert value.tobytes() == ref_value.tobytes() and value.shape == (2 * n,), name
        assert jac.tobytes() == ref_jac.tobytes() and jac.shape == (2 * n, 2 * n) and jac.flags.c_contiguous, name


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_a_lift_field_jet_evaluates_its_field_once_and_reads_no_jet_beyond_x(monkeypatch, chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    z0 = np.concatenate([p.x, p.u])
    fields = _lift_fields(m, eps, rng)
    reads = []
    for name in ("base_jet", "base_gamma"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda m, x, real=real: reads.append(np.asarray(x).tobytes()) or real(m, x))
    jets = read_stencil_jets(m, z0)
    for name, field in fields.items():
        shapes = []
        jets.field_jet(lambda z, jets=None, field=field: shapes.append(np.shape(z)) or field(z, jets))
        assert shapes == [(4 * n + 1, 2 * n)], name
    # the jets of the stencil rows come from its one read: any jet read one by one is the one at p's x
    assert set(reads) <= {p.x.tobytes()}


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_fd_riemann_evaluates_gamma_once_on_the_stack_and_equals_the_per_row_stencil(chart, n, eps):
    m, p, _ = _point(chart, n, eps)
    z0 = np.concatenate([p.x, p.u])
    base = lambda y: christoffel_at(m, y)  # noqa: E731
    for gamma_fn, at, step in ((base, p.x, FD_STEP_SECOND), (sasaki_gamma_fn(m), z0, FD_STEP_GAMMA)):
        calls = []
        r = fd_riemann(lambda y, fn=gamma_fn: calls.append(np.shape(y)) or fn(y), at, step)
        assert calls == [(2 * at.size + 1, at.size)]
        ref = oracle._riemann(gamma_fn(at), partials(gamma_fn, at, step))
        assert r.tobytes() == ref.tobytes()


# ---------------------------------------------------------------- the restacked suite rows


@pytest.mark.parametrize("chart,n,eps", CASES)
@pytest.mark.parametrize("count", [1, 3, 7])
def test_the_stacked_ker_eta_draw_is_the_per_vector_draws(chart, n, eps, count):
    m, p, _ = _point(chart, n, eps)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    rows = sample_ker_eta_parts(m, p, rng, count)
    ref = np.array([sample_ker_eta_vec(m, p, ref_rng).comps() for _ in range(count)])
    assert rows.shape == (count, 2 * n) and rows.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.abs(contact_data_at(m, p).eta_rows(rows)).max() <= 1e-12


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_kind_pair_draws_are_the_per_pair_normals(chart, n, eps):
    m, p, _ = _point(chart, n, eps)
    rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
    x, y, x_h, y_h = contact.lift_draws(m, rng, 4, contact.KIND_PAIRS)
    geo = point_geometry(m, p)
    a, b = contact.lift_parts(geo, x, x_h), contact.lift_parts(geo, y, y_h)
    for k, (kx, ky) in enumerate(contact.KIND_PAIRS):  # the per-pair loop the stacked draw replaces
        xc, yc = ref_rng.normal(size=n), ref_rng.normal(size=n)
        assert x[k].tobytes() == xc.tobytes() and y[k].tobytes() == yc.tobytes()
        assert (x_h[k], y_h[k]) == (kx == "h", ky == "h")
        assert np.array_equal(a[k], lift(m, p, kx, xc).comps()) and np.array_equal(b[k], lift(m, p, ky, yc).comps())
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _kind_rows(m, p, rng, fields=None):
    """Four pairs of base vectors, one of each kind pair, their kinds, and nabla_X Y where X^h (zero elsewhere)."""
    n = m.dim
    if fields is None:
        x, y, x_h, y_h = contact.lift_draws(m, rng, 4, contact.KIND_PAIRS)
        yfield = y
    else:
        xf, yfield = fields
        x, y = np.tile(xf(p.x), (4, 1)), np.tile(yfield(p.x), (4, 1))
        x_h, y_h = (np.array(contact.KIND_PAIRS) == "h").T
    base = point_geometry(m, p).base
    nab = np.where(x_h[:, None], base.nabla(m, x, yfield, y), 0.0)
    assert nab.shape == (4, n)
    return x, y, x_h, y_h, nab


@pytest.mark.parametrize("chart,n,eps", CASES)
@pytest.mark.parametrize("callable_fields", [False, True], ids=["constant", "callable"])
def test_the_stacked_connection_rows_are_the_per_vector_values(chart, n, eps, callable_fields):
    m, p, rng = _point(chart, n, eps)
    geo = point_geometry(m, p)
    fields = (_poly_field(n, rng), _poly_field(n, rng)) if callable_fields else None
    x, y, x_h, y_h, nab = _kind_rows(m, p, rng, fields)
    stacked = sb_nabla_rows(geo, x, y, x_h, y_h, nab)
    defn = contact.nabla_phi_defn_rows(geo, x, y, x_h, y_h, nab)
    for k, (kx, ky) in enumerate(contact.KIND_PAIRS):
        xk, yk = (x[k], y[k]) if fields is None else fields
        assert stacked[k].tobytes() == sb_nabla(m, xk, yk, kx, ky, p).comps().tobytes(), (kx, ky)
        assert defn[k].tobytes() == nabla_phi_defn(m, xk, yk, kx, ky, p).comps().tobytes(), (kx, ky)
    if fields is None:  # the oracle side: constant lifts only, also on a chart without analytic g' and g''
        for chart_m in (m, replace(m, deriv1_fn=None, deriv2_fn=None)):
            via = oracle.sb_nabla_via_ambient_rows(chart_m, p, x, y, x_h, y_h)
            for k, (kx, ky) in enumerate(contact.KIND_PAIRS):
                single = oracle.sb_nabla_via_ambient(chart_m, x[k], y[k], kx, ky, p).comps()
                assert via[k].tobytes() == single.tobytes()


def _nabla_phi_defn_per_vector(m, xval, yval, kind_a, kind_b, p):
    """(nabla_a phi) b of constant lift fields as the per-vector formula wrote it before ``nabla_phi_defn_rows``."""
    geo = point_geometry(m, p)
    g, u, eps = geo.base.g, p.u, p.eps
    if kind_b == "h":
        term1 = sb_nabla(m, xval, yval, kind_a, "t", p)
    else:
        term1 = (-1.0) * sb_nabla(m, xval, yval, kind_a, "h", p)
        if kind_a == "h":
            a_of_s = eps * float(geo.base.nabla(m, xval, yval, yval) @ g @ u)
        else:
            a_of_s = eps * float(yval @ g @ geo.tangential_part(xval))
        s0 = eps * float(yval @ g @ u)
        xi_prime = SBVec(p, u, np.zeros(u.size))
        term1 = term1 + a_of_s * xi_prime + (0.5 * s0) * nabla_xi(m, p, lift(m, p, kind_a, xval))
    return term1 - SBVec.of(p, geo.phi_parts @ sb_nabla(m, xval, yval, kind_a, kind_b, p).comps())


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_nabla_phi_definition_keeps_the_per_vector_formula(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    for _ in range(3):
        x, y, *_ = contact.lift_draws(m, rng, 4, contact.KIND_PAIRS)
        for k, (ka, kb) in enumerate(contact.KIND_PAIRS):
            got = nabla_phi_defn(m, x[k], y[k], ka, kb, p).comps()
            _assert_close(got, _nabla_phi_defn_per_vector(m, x[k], y[k], ka, kb, p).comps())


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_stacked_contact_and_gauss_rows_are_the_per_vector_values(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    geo, data, hop, gauss = point_geometry(m, p), contact_data_at(m, p), h_at(m, p), oracle.gauss_oracle(m, p)
    a, b, c = (sample_sb_parts(m, p, rng, 6) for _ in range(3))
    va, vb, vc = ([_vec(p, row) for row in rows] for rows in (a, b, c))
    nabla_phi_fd = gauss.nabla_endomorphism(contact.phi_matrix_fn(m, eps))
    stacked = {
        "nabla_xi": contact.nabla_xi_rows(geo, a),
        "h": hop.apply_rows(a),
        "gbar": geo.gbar_rows(a, b),
        "embed": oracle._embed_induced_rows(m, p, a),
        "R-bar": contract(geo.rbar, a, b, c),
        "Gauss R-bar": gauss.curvature_rows(a, b, c),
        "II": gauss.second_fundamental_form_rows(a, b),
        "nabla phi FD": nabla_phi_fd(a, b),
    }
    for k in range(6):
        single = {
            "nabla_xi": nabla_xi(m, p, va[k]).comps(),
            "h": hop.apply(va[k]).comps(),
            "gbar": induced_metric_at(m, p, va[k], vb[k]),
            "embed": oracle._embed_induced(m, va[k]),
            "R-bar": sb_curvature(m, p, va[k], vb[k], vc[k]).comps(),
            "Gauss R-bar": oracle.gauss_curvature_oracle(m, p, va[k], vb[k], vc[k]).comps(),
            "II": gauss.second_fundamental_form_rows(a[k], b[k]),
            "nabla phi FD": nabla_phi_fd(a[k], b[k]),
        }
        for name, value in single.items():
            assert np.asarray(stacked[name][k]).tobytes() == np.asarray(value, dtype=float).tobytes(), (name, k)


@pytest.mark.parametrize("chart,n,eps", CASES)
def test_the_stacked_sectional_rows_are_the_per_plane_values(chart, n, eps):
    m, p, rng = _point(chart, n, eps)
    data = contact_data_at(m, p)
    a = sample_ker_eta_parts(m, p, rng, 12)
    a[3] *= 1e-3  # a plane below the 1e-4 floor: not measured
    xi = np.broadcast_to(data.xi.comps(), a.shape)
    for x, y in ((xi, a), (a, data.phi_rows(a))):
        k, measured = contact._sectional_rows(data, x, y, 1e-4)
        assert not measured.all() and measured.sum() >= 6
        for row in range(len(a)):
            single, single_measured = contact._sectional_rows(data, x[row], y[row], 1e-4)
            assert single_measured == measured[row]
            if single_measured:
                assert k[row] == single


# a NaN in one row of one stacked draw: (suite, patched module and sampler, its call, the row, the checks it reaches)
NAN_ROWS = [
    ("connection", suites.ct, "lift_draws", 1, 1, {"sb_nabla = projected ambient derivative"}),
    ("connection", suites, "sample_sb_parts", 1, 2, {"nabla xi = -eps phi - phi h"}),
    ("connection", suites.ct, "lift_draws", 2, 3, {"nabla phi closed form = definition"}),
    ("curvature", suites, "sample_sb_parts", 1, 3, {"R-bar antisymmetry (a,b)", "R-bar antisymmetry (c,d)", "R-bar pair symmetry"}),
    ("curvature", suites, "sample_sb_parts", 2, 0, {"R-bar antisymmetry (a,b)", "R-bar antisymmetry (c,d)", "R-bar pair symmetry", "R-bar first Bianchi identity"}),
    ("phi-sectional", suites, "sample_ker_eta_parts", 2, 1, {"phi-sectional curvature constant (spread)", "phi-sectional value = eps c^2"}),
    ("oracle-crosscheck", suites, "sample_sb_parts", 1, 2, {"sb_curvature = Gauss-equation oracle"}),
    ("oracle-crosscheck", suites, "sample_sb_parts", 3, 0, {"sb_curvature = Gauss-equation oracle", "second fundamental form symmetric"}),
    ("oracle-crosscheck", suites, "sample_sb_parts", 2, 5, {"hypersurface pullback = induced metric"}),
    ("oracle-crosscheck", suites.ct, "lift_draws", 1, 0, {"2 d eta'(A,B) = eps gbar(A, phi'B)"}),
    ("oracle-crosscheck", suites.ct, "lift_draws", 2, 0, {"nabla phi = FD ambient derivative"}),
    ("kappa-mu", contact, "sample_sb_parts", 1, 2, {"(kappa,mu)-nullity residual", "sensitivity: residual(kappa + 0.1) >= 1e-2"}),
    ("kappa-mu", suites, "sample_sb_parts", 2, 1, {"h self-adjoint for g_cm"}),
    ("k-contact", contact, "sample_ker_eta_parts", 2, 1, {"K(xi-plane) = eps"}),
]


@pytest.mark.parametrize("suite,module,sampler,call,row,reached", NAN_ROWS)
@pytest.mark.parametrize("timelike", [False, True], ids=["eps+1", "eps-1"])
def test_one_nan_sample_row_fails_exactly_the_checks_that_read_it(monkeypatch, suite, module, sampler, call, row, reached, timelike):
    cfg = SuiteConfig(suite=suite, num_points=2, num_samples=8, **(dict(n=3, nu=1, c=2.0, eps=-1) if timelike else {}))
    clean = {c.name for c in run_suite(cfg).checks if not c.passed}
    real, calls = getattr(module, sampler), []

    def one_nan_row(*args):
        out = real(*args)
        calls.append(None)
        if len(calls) == call:
            rows = out[0] if isinstance(out, tuple) else out
            rows[row, 0] = math.nan
        return out

    monkeypatch.setattr(module, sampler, one_nan_row)
    rep = run_suite(cfg)
    assert len(calls) >= call
    nan = {c.name for c in rep.checks if math.isnan(c.max_residual)}
    assert nan == reached
    assert {c.name for c in rep.checks if not c.passed} == clean | reached


def _kappa_mu_per_sample(m, p, rng, num_samples):
    """(lhs, design) of the (kappa, mu) system as the per-sample loop of ``sample_sb_vec`` draws built it."""
    data = contact_data_at(m, p)
    rb_xi = data.geo.rbar @ data.xi.comps()
    lhs, v1 = [], []
    for k in range(num_samples):
        a = sample_sb_vec(m, p, rng)
        b = data.xi if k % 3 == 0 else sample_sb_vec(m, p, rng)
        lhs.append((rb_xi @ b.comps()) @ a.comps())
        v1.append((p.eps * (data.eta(b) * a + (-data.eta(a)) * b)).comps())
    lhs, v1 = np.array(lhs), np.array(v1)
    return lhs, np.stack([v1, v1 @ data.geo.h_parts.T], axis=-1)


@pytest.mark.parametrize("chart,n,eps", CASES)
@pytest.mark.parametrize("num_samples", [1, 2, 3, 20])
def test_the_kappa_mu_system_keeps_the_per_sample_bits(monkeypatch, chart, n, eps, num_samples):
    m, p, _ = _point(chart, n, eps)
    km = contact.kappa_mu_for_space_form(2.0, eps)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    systems, real = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, **kw: systems.append((a, b)) or real(a, b, **kw))
    rep = contact.kappa_mu_residual(m, p, km, rng, num_samples=num_samples)
    lhs, design = _kappa_mu_per_sample(m, p, ref_rng, num_samples)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    (a, b), = systems
    assert a.tobytes() == design.reshape(-1, 2).tobytes() and b.tobytes() == lhs.ravel().tobytes()
    fit = real(design.reshape(-1, 2), lhs.ravel(), rcond=None)[0]
    assert (rep.params["kappa_fit"], rep.params["mu_fit"]) == (float(fit[0]), float(fit[1]))
    nullity = np.linalg.norm(lhs - design @ np.array([km.kappa, km.mu]), axis=1).max()
    assert rep.checks[0].name == "(kappa,mu)-nullity residual" and rep.checks[0].max_residual == nullity


def _d_eta_per_pair(m, p, xc, yc):
    """d(eta)(X^h, Y^t) as ``0.5 A^T D B`` of the lift values at p, the scalar the row read before the stacked pairs."""
    z0 = np.concatenate([p.x, p.u])
    a0 = sb_lift_field_fn(m, xc, "h", p.eps)(z0)
    b0 = sb_lift_field_fn(m, yc, "t", p.eps)(z0)
    return 0.5 * float(a0 @ contact.d_eta_tensor(m, p) @ b0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [1, -1])
def test_the_d_eta_prime_row_keeps_the_per_pair_bits(monkeypatch, n, eps):
    cfg = SuiteConfig(suite="oracle-crosscheck", n=n, nu=1, c=2.0, eps=eps, num_points=3, num_samples=8)
    real, pairs = contact._lift_pairs, []

    def recorded(m, p, rng, count):
        before = copy.deepcopy(rng.bit_generator.state)
        out = real(m, p, rng, count)
        pairs.append((m, p, before, copy.deepcopy(rng.bit_generator.state)))
        return out

    monkeypatch.setattr(suites.ct, "_lift_pairs", recorded)
    rows = [r for name, r, _ in suites._suite_oracle(cfg, suites._chart(cfg), {}) if name == "2 d eta'(A,B) = eps gbar(A, phi'B)"]
    assert len(rows) == len(pairs) == cfg.num_points
    for residual, (m, p, before, after) in zip(rows, pairs):
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = before
        xc, yc = ref_rng.normal(size=n), ref_rng.normal(size=n)
        assert ref_rng.bit_generator.state == after
        two_deta_p = 4.0 * _d_eta_per_pair(m, p, xc, yc)
        gbar_phi = induced_metric_at(m, p, horizontal_sb(p, xc), contact_data_at(m, p).phi(tangential_lift(m, p, yc)))
        assert residual == abs(two_deta_p - eps * gbar_phi)
