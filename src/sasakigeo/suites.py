"""Named verification suites over a configured space-form base.

Suites map onto the checkable content: ``axioms``, ``connection``,
``curvature``, ``kappa-mu``, ``k-contact``, ``sasakian``, ``phi-sectional``,
``oracle-crosscheck``, ``index``, ``brackets``, plus the ``all`` meta-suite
that sweeps the configuration matrix and compares each verdict with the
published expectation.

Each suite is a generator of ``(check name, residual, tolerance)`` rows,
drawn from the seed in a fixed order; the contact-layer reports enter as
their checks.  ``run_suite`` folds the rows once into a ``CheckReport``: a
check keeps the worst residual of its rows (NaN wins), checks are listed in
the order of their first row, and ``cfg.tol`` (``--tol``) overrides every
tolerance.  Generator rows, rather than a table of residual functions, keep
the random draws in the order that fixes every seeded result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import contact as ct
from . import oracle as orc
from . import sphere as sb
from . import tangent as tb
from .errors import InvalidConfig
from .manifold import (
    ChartedMetric,
    SpaceFormSpec,
    christoffel_at,
    lower_riemann,
    metric_at,
    riemann_at,
    sectional_curvature,
    signature_at,
    space_form_chart,
    validate_space_form,
)
from .report import CheckItem, CheckReport, worst_of
from .sampling import (
    rng_for,
    sample_domain_point,
    sample_fiber_vector,
    sample_ker_eta_vec,
    sample_sb_point,
    sample_sb_vec,
    sample_tangent_plane,
)
from .stencil import FD_STEP_FIRST, central_difference

SUITES = (
    "axioms",
    "connection",
    "curvature",
    "kappa-mu",
    "k-contact",
    "sasakian",
    "phi-sectional",
    "oracle-crosscheck",
    "index",
    "brackets",
    "all",
)

SQRT5 = math.sqrt(5.0)
SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass
class SuiteConfig:
    suite: str
    n: int = 2
    nu: int = 0
    c: float = 1.0
    eps: int = 1
    seed: int = 42
    tol: float | None = None  # optional global tolerance override
    num_points: int = 10
    num_samples: int = 20

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise InvalidConfig(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.n < 2:
            raise InvalidConfig("n must be >= 2")
        if not 0 <= self.nu <= self.n:
            raise InvalidConfig("nu must satisfy 0 <= nu <= n")
        if self.eps not in (1, -1):
            raise InvalidConfig("eps must be +1 or -1")
        if self.eps == -1 and self.nu < 1:
            raise InvalidConfig("eps = -1 requires nu >= 1")
        if self.num_points < 1 or self.num_samples < 1:
            raise InvalidConfig("num_points and num_samples must be >= 1")
        if not math.isfinite(self.c):
            raise InvalidConfig("c must be finite")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0):
            raise InvalidConfig("tol must be finite and >= 0")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must be a 64-bit unsigned integer")

    def params(self) -> dict:
        return {
            "n": self.n,
            "nu": self.nu,
            "c": self.c,
            "eps": self.eps,
            "seed": self.seed,
            "tol": self.tol,
        }

    def tol_or(self, default: float) -> float:
        return default if self.tol is None else self.tol


# validated charts by (n, nu, c, seed) while ``_run_all_matrix`` runs, else None
_matrix_charts: dict | None = None


def _chart(cfg: SuiteConfig) -> ChartedMetric:
    """The validated space form of ``cfg``; eps does not enter the chart.

    Inside the ``all`` matrix each chart is built and validated once and then
    shared by the suites and fiber signs of its configuration.  A validation
    that raises is not kept, so the next row validates again.
    """
    charts = {} if _matrix_charts is None else _matrix_charts
    key = (cfg.n, cfg.nu, cfg.c, cfg.seed)
    if key not in charts:
        spec = SpaceFormSpec(cfg.n, cfg.nu, cfg.c)
        m = space_form_chart(spec)
        validate_space_form(m, spec, rng_for(cfg.seed, 9999), num_points=10)
        charts[key] = m
    return charts[key]


def _poly_field(n: int, rng: np.random.Generator):
    """A smooth random polynomial vector field (degree 2 components)."""
    a0 = rng.normal(size=n)
    a1 = rng.normal(size=(n, n))
    a2 = rng.normal(size=(n, n, n)) * 0.5

    def fn(x):
        return a0 + a1 @ x + np.einsum("ijk,j,k->i", a2, x, x)

    return fn


def _rows(report: CheckReport):
    """The checks of a contact-layer report as suite rows."""
    for chk in report.checks:
        yield chk.name, chk.max_residual, chk.tol


# ---------------------------------------------------------------- suites


def _suite_axioms(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 1, i)
        p = sample_sb_point(m, cfg.eps, rng)
        yield from _rows(ct.check_contact_axioms(m, p, rng, num_samples=cfg.num_samples))


def _suite_connection(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 2, i)
        p = sample_sb_point(m, cfg.eps, rng)
        at = p.tm
        xf = _poly_field(n, rng)
        yf = _poly_field(n, rng)

        # metric compatibility of tm_nabla along lift directions (FD on TM)
        zf = _poly_field(n, rng)
        z0 = np.concatenate([p.x, p.u])
        tg_fn = orc.sasaki_metric_fn(m)
        for ka, kb, kc in [("h", "h", "v"), ("v", "h", "h"), ("h", "v", "v")]:
            a_fn = orc.lift_field_fn(m, xf, ka)
            b_fn = orc.lift_field_fn(m, yf, kb)
            c_fn = orc.lift_field_fn(m, zf, kc)

            def tg_bc(z):
                return float(np.asarray(b_fn(z)) @ tg_fn(z) @ np.asarray(c_fn(z)))

            dtg = central_difference(tg_bc, z0, a_fn(z0), FD_STEP_FIRST)
            nab_b = tb.tm_nabla(m, xf, yf, ka, kb, at)
            nab_c = tb.tm_nabla(m, xf, zf, ka, kc, at)
            b_vec = tb.from_induced_coords(m, at, np.asarray(b_fn(z0)))
            c_vec = tb.from_induced_coords(m, at, np.asarray(c_fn(z0)))
            lhs = dtg - tb.sasaki_metric_at(m, at, nab_b, c_vec) - tb.sasaki_metric_at(m, at, b_vec, nab_c)
            yield "tm_nabla metric compatibility (FD)", abs(lhs), 1e-5

        # metric compatibility of sb_nabla in the solved hypersurface chart
        chart = orc.hypersurface_pullback(m, p)

        def sb_field_value(field, kind, w):
            z = chart.param_fn(w)
            q = sb.SBPoint(z[:n], z[n:], cfg.eps)
            val = tb.field_at(field, z[:n])
            return sb.lift(m, q, kind, val), q

        for ka, kb, kc in [("h", "t", "t"), ("t", "h", "h")]:
            a_w = chart.drop(orc.sb_lift_field_fn(m, xf, ka, cfg.eps)(z0))

            def gbar_bc(w):
                b_val, q = sb_field_value(yf, kb, w)
                c_val, _ = sb_field_value(zf, kc, w)
                return sb.induced_metric_at(m, q, b_val, c_val)

            dg = central_difference(gbar_bc, chart.center, a_w, FD_STEP_FIRST)
            nab_b = sb.sb_nabla(m, xf, yf, ka, kb, p)
            nab_c = sb.sb_nabla(m, xf, zf, ka, kc, p)
            b_val, _ = sb_field_value(yf, kb, chart.center)
            c_val, _ = sb_field_value(zf, kc, chart.center)
            lhs = dg - sb.induced_metric_at(m, p, nab_b, c_val) - sb.induced_metric_at(m, p, b_val, nab_c)
            yield "sb_nabla metric compatibility (FD)", abs(lhs), 1e-5

        # projection identity (constant vectors: exact lift-field Jacobians)
        for kx, ky in [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]:
            xc = rng.normal(size=n)
            yc = rng.normal(size=n)
            closed = sb.sb_nabla(m, xc, yc, kx, ky, p)
            via = orc.sb_nabla_via_ambient(m, xc, yc, kx, ky, p)
            yield "sb_nabla = projected ambient derivative", np.abs((closed - via).comps()).max(), 1e-9
        data = ct.contact_data_at(m, p)
        hop = ct.h_at(m, p)
        for _ in range(4):
            a = sample_sb_vec(m, p, rng)
            lhs = ct.nabla_xi(m, p, a)
            rhs = (-cfg.eps) * data.phi(a) + (-1.0) * data.phi(hop.apply(a))
            yield "nabla xi = -eps phi - phi h", np.abs((lhs - rhs).comps()).max(), 1e-9
        yield "geodesic flow: nabla_xi xi = 0", np.abs(ct.nabla_xi(m, p, data.xi).comps()).max(), 1e-10
        for ka, kb in [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]:
            xc = rng.normal(size=n)
            yc = rng.normal(size=n)
            closed = ct.nabla_phi(m, p, sb.lift(m, p, ka, xc), sb.lift(m, p, kb, yc))
            defn = ct.nabla_phi_defn(m, xc, yc, ka, kb, p)
            yield "nabla phi closed form = definition", np.abs((closed - defn).comps()).max(), 1e-9


def _suite_curvature(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 3, i)
        x = sample_domain_point(m, rng)
        riem = riemann_at(m, x)
        rl = lower_riemann(m, x, riem)
        yield "R antisymmetric in last pair", np.abs(rl + np.einsum("ijkl->ijlk", rl)).max(), 1e-10
        yield "R antisymmetric in first pair", np.abs(rl + np.einsum("ijkl->jikl", rl)).max(), 1e-10
        yield "R pair symmetry", np.abs(rl - np.einsum("ijkl->klij", rl)).max(), 1e-10
        bianchi = riem.r + np.einsum("ijkl->iklj", riem.r) + np.einsum("ijkl->iljk", riem.r)
        yield "R first Bianchi identity", np.abs(bianchi).max(), 1e-10
        xv, yv = sample_tangent_plane(m, x, rng)
        yield "sectional curvature = c", abs(sectional_curvature(m, x, xv, yv) - cfg.c), 1e-8

        p = sample_sb_point(m, cfg.eps, rng)
        geo = sb.point_geometry(m, p)
        w = rng.normal(size=n)
        w = w - cfg.eps * float(w @ geo.base.g @ p.u) * p.u
        rxu = geo.base.riem.apply(w, p.u, p.u) - cfg.eps * cfg.c * w
        yield "R(X,u)u = eps c X for X perp u", np.abs(rxu).max(), 1e-8

        # curvature symmetries of the induced metric via lowered samples
        vecs = [sample_sb_vec(m, p, rng) for _ in range(4)]
        a, b, cc, d = vecs

        def low(v1, v2, v3, v4):
            return sb.induced_metric_at(m, p, sb.sb_curvature(m, p, v1, v2, v3), v4)

        yield "R-bar antisymmetry (a,b)", abs(low(a, b, cc, d) + low(b, a, cc, d)), 1e-8
        yield "R-bar antisymmetry (c,d)", abs(low(a, b, cc, d) + low(a, b, d, cc)), 1e-8
        yield "R-bar pair symmetry", abs(low(a, b, cc, d) - low(cc, d, a, b)), 1e-8
        fb = (
            sb.sb_curvature(m, p, a, b, cc)
            + sb.sb_curvature(m, p, b, cc, a)
            + sb.sb_curvature(m, p, cc, a, b)
        )
        yield "R-bar first Bianchi identity", np.abs(fb.comps()).max(), 1e-8

    # constant rescaling of the metric leaves Gamma and the curvature operator unchanged
    lam = 3.7
    scaled = ChartedMetric(
        dim=m.dim,
        index=m.index,
        metric_fn=lambda x: lam * m.metric_fn(x),
        deriv1_fn=None if m.deriv1_fn is None else (lambda x: lam * m.deriv1_fn(x)),
        deriv2_fn=None if m.deriv2_fn is None else (lambda x: lam * m.deriv2_fn(x)),
        domain_fn=m.domain_fn,
        locally_symmetric=m.locally_symmetric,
        name=f"{lam} * {m.name}",
    )
    rng = rng_for(cfg.seed, 3, 10_000)
    x = sample_domain_point(m, rng)
    dgamma = np.abs(christoffel_at(m, x).gamma - christoffel_at(scaled, x).gamma).max()
    drr = np.abs(riemann_at(m, x).r - riemann_at(scaled, x).r).max()
    yield "curvature operator invariant under constant metric scaling", worst_of(dgamma, drr), 1e-10


def _suite_kappa_mu(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    km = ct.kappa_mu_for_space_form(cfg.c, cfg.eps)
    params["kappa"] = km.kappa
    params["mu"] = km.mu
    fits = []
    expect_t = 2.0 - cfg.eps * (1.0 + cfg.c)
    expect_h = cfg.eps * (cfg.c - 1.0)
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 4, i)
        p = sample_sb_point(m, cfg.eps, rng)
        rep = ct.kappa_mu_residual(m, p, km, rng, num_samples=cfg.num_samples)
        yield from _rows(rep)
        fits.append((rep.params["kappa_fit"], rep.params["mu_fit"]))
        pert = ct.kappa_mu_residual(
            m, p, ct.KappaMu(km.kappa + 0.1, km.mu), rng_for(cfg.seed, 4, i, 1), num_samples=cfg.num_samples
        )
        yield "sensitivity: residual(kappa + 0.1) >= 1e-2", worst_of(0.0, 1e-2 - pert.checks[0].max_residual), 0.0
        yield from _rows(ct.psi_u_quadratics(m, p, km))

        hop = ct.h_at(m, p)
        ev = hop.eigenvalues()
        expected = np.sort(np.array([expect_t] * (cfg.n - 1) + [expect_h] * (cfg.n - 1) + [0.0]))
        yield "h eigenvalues = {2 - eps(1+c), eps(c-1), 0}", np.abs(ev - expected).max(), 1e-9
        data = ct.contact_data_at(m, p)
        yield "h(xi) = 0", np.abs(hop.apply(data.xi).comps()).max(), 1e-12
        a = sample_sb_vec(m, p, rng)
        b = sample_sb_vec(m, p, rng)
        yield "h self-adjoint for g_cm", abs(data.gcm(hop.apply(a), b) - data.gcm(a, hop.apply(b))), 1e-8
    params["kappa_fit"] = float(np.mean([f[0] for f in fits]))
    params["mu_fit"] = float(np.mean([f[1] for f in fits]))


def _suite_k_contact(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    points = [sample_sb_point(m, cfg.eps, rng_for(cfg.seed, 5, i)) for i in range(cfg.num_points)]
    yield from _rows(
        ct.k_contact_residual(m, points, rng_for(cfg.seed, 5, 10_000), samples_per_point=max(4, cfg.num_samples // 3))
    )


def _suite_sasakian(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 6, i)
        p = sample_sb_point(m, cfg.eps, rng)
        yield from _rows(ct.sasakian_residual(m, p, rng, num_samples=max(8, cfg.num_samples // 2)))


def _suite_phi_sectional(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    values = []
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 7, i)
        p = sample_sb_point(m, cfg.eps, rng)
        data = ct.contact_data_at(m, p)
        for _ in range(max(2, cfg.num_samples // cfg.num_points + 1)):
            a = sample_ker_eta_vec(m, p, rng)
            phia = data.phi(a)
            den = data.gcm(a, a) * data.gcm(phia, phia) - data.gcm(a, phia) ** 2
            if abs(den) <= 1e-4:
                continue
            values.append(ct.phi_sectional(m, p, a))
    values = np.array(values)
    spread = float(values.max() - values.min()) if values.size else float("inf")
    mean = float(values.mean()) if values.size else float("nan")
    params["phi_sectional_mean"] = mean
    params["phi_sectional_spread"] = spread
    yield "phi-sectional curvature constant (spread)", spread, 1e-6
    yield "phi-sectional value = eps c^2", abs(mean - cfg.eps * cfg.c**2), 1e-6


def _suite_oracle(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    gamma_tilde = orc.sasaki_gamma_fn(m)
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 8, i)
        x = sample_domain_point(m, rng)
        yield (
            "christoffel_at = Koszul FD oracle",
            np.abs(christoffel_at(m, x).gamma - orc.fd_christoffel(m.metric_fn, x).gamma).max(),
            1e-6,
        )
        yield (
            "riemann_at = FD curvature oracle",
            np.abs(riemann_at(m, x).r - orc.fd_riemann(lambda y: christoffel_at(m, y).gamma, x).r).max(),
            1e-5,
        )
        # second-order convergence spot check of the FD Christoffel oracle
        g_h = orc.fd_christoffel(m.metric_fn, x).gamma
        g_h2 = orc.fd_christoffel(m.metric_fn, x, FD_STEP_FIRST / 2.0).gamma
        yield "FD step halving stays within 4x tolerance", np.abs(g_h - g_h2).max() / 4.0, 1e-6

        p = sample_sb_point(m, cfg.eps, rng)
        z0 = np.concatenate([p.x, p.u])
        gauss = orc.GaussOracle(m, p)
        for _ in range(max(2, cfg.num_samples // 8)):
            a = sample_sb_vec(m, p, rng)
            b = sample_sb_vec(m, p, rng)
            cvec = sample_sb_vec(m, p, rng)
            closed = sb.sb_curvature(m, p, a, b, cvec)
            yield "sb_curvature = Gauss-equation oracle", np.abs((closed - gauss.curvature(a, b, cvec)).comps()).max(), 1e-5
            ii_ab = gauss.second_fundamental_form(a, b)
            ii_ba = gauss.second_fundamental_form(b, a)
            yield "second fundamental form symmetric", abs(ii_ab - ii_ba), 1e-8

        xf = _poly_field(n, rng)
        yf = _poly_field(n, rng)
        for kx, ky in [("h", "h"), ("h", "t"), ("t", "t")]:
            xc = rng.normal(size=n)
            yc = rng.normal(size=n)
            closed = sb.sb_nabla(m, xc, yc, kx, ky, p)
            via = orc.sb_nabla_via_ambient(m, xc, yc, kx, ky, p)
            yield "sb_nabla = projection of ambient FD derivative", np.abs((closed - via).comps()).max(), 1e-9
        for kx, ky in [("h", "h"), ("h", "v"), ("v", "h")]:
            closed_ind = tb.to_induced_coords(m, tb.tm_nabla(m, xf, yf, kx, ky, p.tm))
            amb = orc.ambient_nabla(
                orc.lift_field_fn(m, xf, kx), orc.lift_field_fn(m, yf, ky), z0, gamma_tilde
            )
            yield "tm_nabla = FD Christoffels of Tg on lift fields", np.abs(closed_ind - amb).max(), 1e-5

        # induced metric against the solved-chart pullback
        chart = orc.hypersurface_pullback(m, p)
        gbar_fn = chart.pullback_metric_fn()
        gbar_w = gbar_fn(chart.center)
        for _ in range(3):
            v1 = sample_sb_vec(m, p, rng)
            v2 = sample_sb_vec(m, p, rng)
            w1 = chart.drop(orc._embed_induced(m, v1))
            w2 = chart.drop(orc._embed_induced(m, v2))
            yield (
                "hypersurface pullback = induced metric",
                abs(float(w1 @ gbar_w @ w2) - sb.induced_metric_at(m, p, v1, v2)),
                1e-8,
            )
        jac = chart.jacobian_fn(chart.center)
        sv = np.linalg.svd(jac, compute_uv=False)
        yield "pullback chart rank 2n-1", worst_of(0.0, 1e-6 - sv.min()), 0.0
        zc = chart.param_fn(chart.center)
        g_c = metric_at(m, zc[:n])
        yield "pullback constraint g(u,u) = eps", abs(float(zc[n:] @ g_c @ zc[n:]) - cfg.eps), 1e-9

        # exterior-derivative oracle: exact forms close, and the signed
        # factor-2 identity 2 d eta'(A, B) = eps gbar(A, phi' B)
        coeffs = rng.normal(size=2 * n)

        def exact_form(z):
            # omega = d f for f = sum coeffs_i z_i^2 / 2
            return coeffs * z

        yield "fd_exterior_derivative of exact form = 0", np.abs(orc.fd_exterior_derivative(exact_form, z0)).max(), 1e-8
        xc = rng.normal(size=n)
        yc = rng.normal(size=n)
        two_deta_p = 4.0 * ct.d_eta_fd(m, p, xc, "h", yc, "t")  # 2 d eta' = 4 d eta
        a_sb = sb.horizontal_sb(p, xc)
        data = ct.contact_data_at(m, p)
        b_sb = sb.tangential_lift(m, p, yc)
        gbar_phi = sb.induced_metric_at(m, p, a_sb, data.phi(b_sb))
        yield "2 d eta'(A,B) = eps gbar(A, phi'B)", abs(two_deta_p - cfg.eps * gbar_phi), 1e-5

        # closed nabla phi against the FD covariant derivative of the phi field on TM
        nabla_phi_fd = gauss.nabla_endomorphism(ct.phi_matrix_fn(m, cfg.eps))
        for ka, kb in [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]:
            a_sb = sb.lift(m, p, ka, rng.normal(size=n))
            b_sb = sb.lift(m, p, kb, rng.normal(size=n))
            diff = ct.nabla_phi(m, p, a_sb, b_sb) - nabla_phi_fd(a_sb, b_sb)
            yield "nabla phi = FD ambient derivative", np.abs(diff.comps()).max(), 1e-5


def _suite_index(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    expected_gbar_neg = 2 * cfg.nu - (1 if cfg.eps == -1 else 0)
    tg_fn = orc.sasaki_metric_fn(m)
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 9, i)
        x = sample_domain_point(m, rng)
        pos, neg = signature_at(m, x)
        yield "base signature (n - nu, nu)", abs(pos - (cfg.n - cfg.nu)) + abs(neg - cfg.nu), 0.0
        u = sample_fiber_vector(m, x, cfg.eps, rng)
        z = np.concatenate([x, rng.normal(size=cfg.n)])  # arbitrary fiber point of TM
        eig = np.linalg.eigvalsh(tg_fn(z))
        yield "index of Sasaki metric Tg = 2 nu", abs(int((eig < 0).sum()) - 2 * cfg.nu), 0.0

        p = sb.sb_point(m, x, u, cfg.eps)
        gram = sb.frame_gram(m, sb.frame_at(m, p))
        yield "frame Gram diagonal = +-1", np.abs(np.abs(np.diag(gram)) - 1.0).max(), 1e-10
        yield "frame Gram off-diagonal = 0", np.abs(gram - np.diag(np.diag(gram))).max(), 1e-10
        yield (
            "index of induced metric = 2 nu - (eps = -1)",
            abs(int((np.diag(gram) < 0).sum()) - expected_gbar_neg),
            0.0,
        )
        chart = orc.hypersurface_pullback(m, p)
        eigw = np.linalg.eigvalsh(chart.pullback_metric_fn()(chart.center))
        yield "pullback metric index matches", abs(int((eigw < 0).sum()) - expected_gbar_neg), 0.0


def _suite_brackets(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 10, i)
        p = sample_sb_point(m, cfg.eps, rng)
        z0 = np.concatenate([p.x, p.u])
        xf = _poly_field(n, rng)
        yf = _poly_field(n, rng)
        labels = {
            ("h", "h"): "[X^h, Y^h] = [X,Y]^h - v{R(X,Y)u}",
            ("h", "v"): "[X^h, Y^v] = (nabla_X Y)^v",
            ("v", "v"): "[X^v, Y^v] = 0",
        }
        for (kx, ky), label in labels.items():
            closed = tb.to_induced_coords(m, tb.lift_bracket(m, xf, yf, kx, ky, p.tm))
            fd = orc.fd_lie_bracket(orc.lift_field_fn(m, xf, kx), orc.lift_field_fn(m, yf, ky), z0)
            yield label, np.abs(closed - fd).max(), 1e-5
        sb_labels = {
            ("h", "t"): "[X^h, Y^t] = (nabla_X Y)^t",
            ("t", "t"): "[X^t, Y^t] = eps g(X,u)Y^t - eps g(Y,u)X^t",
            ("h", "h"): "[X^h, Y^h] on T_eps M",
        }
        for (kx, ky), label in sb_labels.items():
            closed = orc._embed_induced(m, sb.sb_bracket(m, xf, yf, kx, ky, p))
            fd = orc.fd_lie_bracket(
                orc.sb_lift_field_fn(m, xf, kx, cfg.eps), orc.sb_lift_field_fn(m, yf, ky, cfg.eps), z0
            )
            yield label, np.abs(closed - fd).max(), 1e-5


# ---------------------------------------------------------------- driver


_SUITE_FNS = {
    "axioms": _suite_axioms,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "kappa-mu": _suite_kappa_mu,
    "k-contact": _suite_k_contact,
    "sasakian": _suite_sasakian,
    "phi-sectional": _suite_phi_sectional,
    "oracle-crosscheck": _suite_oracle,
    "index": _suite_index,
    "brackets": _suite_brackets,
}


def run_suite(cfg: SuiteConfig) -> CheckReport:
    """Run one named suite (or the ``all`` matrix) and return its report.

    The suite's rows are folded once: each check keeps the ``worst_of`` its
    residuals (so a NaN wins), the checks are listed in the order their first
    row arrived, and ``cfg.tol`` overrides every tolerance.
    """
    cfg.validate()
    start = time.perf_counter()
    params = cfg.params()
    if cfg.suite == "all":
        checks = _run_all_matrix(cfg)
    else:
        worst: dict = {}
        tols: dict = {}
        for name, residual, tol in _SUITE_FNS[cfg.suite](cfg, _chart(cfg), params):
            worst[name] = worst_of(worst.get(name, 0.0), residual)
            tols[name] = tol
        checks = [CheckItem(name, worst[name], cfg.tol_or(tols[name])) for name in worst]
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return CheckReport.build(cfg.suite, params, checks, runtime_ms)


# ---------------------------------------------------------------- all matrix


def matrix_configs(cfg: SuiteConfig):
    """The verification matrix: n in {2,3}, nu in {0,1}, eps valid, c grid."""
    c_grid = [0.0, 1.0, -1.0, 2.0, -3.0 + SQRT8, 2.0 + SQRT5]
    for n in (2, 3):
        for nu in (0, 1):
            for eps in (1, -1):
                if eps == -1 and nu == 0:
                    continue
                for c in c_grid:
                    yield replace(cfg, n=n, nu=nu, eps=eps, c=c)


def expected_pass(suite: str, cfg: SuiteConfig) -> bool:
    """The published expectation for each suite verdict at a configuration."""
    if suite in ("k-contact", "sasakian"):
        # Sasakian implies K-contact, and K-contact holds iff c = eps
        return abs(cfg.c - cfg.eps) < 1e-12
    if suite == "phi-sectional":
        if cfg.n == 2:
            return True  # a single phi-plane family: constancy is automatic
        roots = (2.0 * cfg.eps + SQRT5, 2.0 * cfg.eps - SQRT5)
        return min(abs(cfg.c - roots[0]), abs(cfg.c - roots[1])) < 1e-12
    return True


def _run_all_matrix(cfg: SuiteConfig) -> list:
    global _matrix_charts
    suites = [s for s in SUITES if s != "all"]
    # the meta-suite trades sample counts for matrix coverage
    base = replace(cfg, num_points=max(2, cfg.num_points // 5), num_samples=max(6, cfg.num_samples // 3))
    checks = []
    _matrix_charts = {}
    try:
        for sub_cfg in matrix_configs(base):
            for suite in suites:
                one = replace(sub_cfg, suite=suite)
                report = run_suite(one)
                expect = expected_pass(suite, one)
                label = (
                    f"{suite}[n={one.n},nu={one.nu},eps={one.eps:+d},c={one.c:.6g}]"
                    f" (expect {'pass' if expect else 'fail'})"
                )
                checks.append(CheckItem(label, 0.0 if report.passed == expect else 1.0, 0.0))
    finally:
        _matrix_charts = None
    return checks
