"""Named verification suites over a configured space-form base.

Suites map onto the checkable content: ``axioms``, ``connection``,
``curvature``, ``kappa-mu``, ``k-contact``, ``sasakian``, ``phi-sectional``,
``oracle-crosscheck``, ``index``, ``brackets``, plus the ``all`` meta-suite
that sweeps the configuration matrix and compares each verdict with the
published expectation.

Each suite is a generator of ``(check name, residual, tolerance)`` rows,
drawn from the seed in a fixed order; the contact-layer reports enter as
their checks.  ``run_suite`` folds the rows once into a ``CheckReport`` with
``report.fold``: a check keeps the worst residual of its rows (NaN wins),
checks are listed in the order of their first row, and ``cfg.tol``
(``--tol``) overrides every tolerance.  Generator rows, rather than a table
of residual functions, keep the random draws in the order that fixes every
seeded result.
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
from .errors import InvalidConfig, SpaceFormMismatch
from .manifold import (
    ChartedMetric,
    SpaceFormSpec,
    _sectional,
    christoffel_at,
    metric_at,
    riemann_at,
    signature_at,
    space_form_chart,
    validate_space_form,
)
from .report import CheckItem, CheckReport, fold, worst_of
from .sampling import (
    rng_for,
    sample_domain_point,
    sample_ker_eta_parts,
    sample_sb_parts,
    sample_sb_point,
    sample_tangent_plane,
)
from .stencil import FD_STEP_FIRST, central_difference

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


# the validated chart of the running chart group of ``_run_all_matrix``, by ``_chart_key``, else None
_matrix_charts: dict | None = None


def _chart_key(cfg: SuiteConfig) -> tuple:
    """What the chart of ``cfg`` depends on: eps does not enter it."""
    return (cfg.n, cfg.nu, cfg.c, cfg.seed)


def _chart(cfg: SuiteConfig) -> ChartedMetric:
    """The validated space form of ``cfg``.

    Inside the ``all`` matrix the running chart is built and validated once
    and then shared by the suites and fiber signs of its configurations;
    ``_run_all_matrix`` holds no other chart.  A validation that raises is
    not kept, so the next row validates again.  A c whose chart overflows or
    misses c beyond the validation bound is an ``InvalidConfig``.
    """
    charts = {} if _matrix_charts is None else _matrix_charts
    key = _chart_key(cfg)
    if key not in charts:
        spec = SpaceFormSpec(cfg.n, cfg.nu, cfg.c)
        try:
            m = space_form_chart(spec)
            validate_space_form(m, spec, rng_for(cfg.seed, 9999), num_points=10)
        except (OverflowError, SpaceFormMismatch) as exc:
            raise InvalidConfig(f"cannot build or validate {spec}: {type(exc).__name__}: {exc}") from exc
        charts[key] = m
    return charts[key]


def _poly_field(n: int, rng: np.random.Generator):
    """A smooth random polynomial vector field (degree 2 components).

    The field keeps a read-only value for each x it has evaluated, keyed by
    x's bytes: a field is a function of x (``BaseContext.nabla`` relies on
    that too), and the suites ask for it at the same few points many times.
    """
    a0 = rng.normal(size=n)
    a1 = rng.normal(size=(n, n))
    a2 = rng.normal(size=(n, n, n)) * 0.5
    values = {}

    def fn(x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key not in values:
            value = a0 + a1 @ x + np.einsum("ijk,j,k->i", a2, x, x)
            value.flags.writeable = False
            values[key] = value
        return values[key]

    return fn


def _rows(report: CheckReport):
    """The checks of a contact-layer report as suite rows."""
    for chk in report.checks:
        yield chk.name, chk.max_residual, chk.tol


def _points(cfg: SuiteConfig, m: ChartedMetric, stream: int):
    """(rng, p) for each of the ``cfg.num_points`` points of a suite's seed stream: p is the first draw of rng."""
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, stream, i)
        yield rng, sample_sb_point(m, cfg.eps, rng)


# ---------------------------------------------------------------- suites


def _suite_axioms(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    for rng, p in _points(cfg, m, 1):
        yield from _rows(ct.check_contact_axioms(m, p, rng, num_samples=cfg.num_samples))


def _suite_connection(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    for rng, p in _points(cfg, m, 2):
        xf = _poly_field(n, rng)
        yf = _poly_field(n, rng)

        # metric compatibility: A(Tg(B, C)) by FD over the oracle's lift fields, which extend
        # B and C off T_eps M, against Tg(nabla_A B, C) + Tg(B, nabla_A C) at p
        zf = _poly_field(n, rng)
        z0 = np.concatenate([p.x, p.u])
        # every row below sits at x or at x +- h X(x), where the rows along A = X^h step, so one read holds them
        ax = FD_STEP_FIRST * xf(p.x)
        orc.read_jets(m, [p.x, p.x + ax, p.x - ax])
        tg_fn = orc.sasaki_metric_fn(m)
        tg0 = tg_fn(z0)
        bundles = [
            (
                "tm_nabla metric compatibility (FD)",
                lambda f, kind: orc.lift_field_fn(m, f, kind),
                lambda f1, f2, k1, k2: tb.to_induced_coords(m, tb.tm_nabla(m, f1, f2, k1, k2, p.tm)),
                [("h", "h", "v"), ("v", "h", "h"), ("h", "v", "v")],
            ),
            (
                "sb_nabla metric compatibility (FD)",
                lambda f, kind: orc.sb_lift_field_fn(m, f, kind, cfg.eps),
                lambda f1, f2, k1, k2: orc._embed_induced(m, sb.sb_nabla(m, f1, f2, k1, k2, p)),
                [("h", "t", "t"), ("t", "h", "h")],
            ),
        ]
        for name, lift_fn, nabla_fn, kinds in bundles:
            for ka, kb, kc in kinds:
                a_fn, b_fn, c_fn = lift_fn(xf, ka), lift_fn(yf, kb), lift_fn(zf, kc)
                dtg = central_difference(lambda z: float(b_fn(z) @ tg_fn(z) @ c_fn(z)), z0, a_fn(z0), FD_STEP_FIRST)
                nab_b, nab_c = nabla_fn(xf, yf, ka, kb), nabla_fn(xf, zf, ka, kc)
                yield name, abs(dtg - nab_b @ tg0 @ c_fn(z0) - b_fn(z0) @ tg0 @ nab_c), 1e-5

        # The sampled identities below draw in the order of the per-sample loops they stack (one pair
        # of each kind of ``ct.KIND_PAIRS`` from one normal call, then 4 vectors from one
        # ``sample_sb_parts`` call, then one more pair of each kind), and each side of an identity is one
        # stacked kernel over the rows, whose one-row case is the per-vector function named beside it.
        geo = sb.point_geometry(m, p)

        # projection identity (constant vectors: exact lift-field Jacobians): sb_nabla, sb_nabla_via_ambient
        xc, yc, xh, yh = ct.lift_draws(m, rng, 4, ct.KIND_PAIRS)
        gamma_xy = np.where(xh[:, None], geo.base.nabla(m, xc, yc, yc), 0.0)  # nabla_X Y where A = X^h
        closed = sb.sb_nabla_rows(geo, xc, yc, xh, yh, gamma_xy)
        via = orc.sb_nabla_via_ambient_rows(m, p, xc, yc, xh, yh)
        yield "sb_nabla = projected ambient derivative", np.abs(closed - via).max(), 1e-9
        hop = ct.h_at(m, p)
        a = sample_sb_parts(m, p, rng, 4)  # nabla_xi against phi and h
        rhs = (-cfg.eps) * hop.phi_rows(a) + (-1.0) * hop.phi_rows(hop.apply_rows(a))
        yield "nabla xi = -eps phi - phi h", np.abs(ct.nabla_xi_rows(geo, a) - rhs).max(), 1e-9
        yield "geodesic flow: nabla_xi xi = 0", np.abs(ct.nabla_xi_rows(geo, hop.xi.comps())).max(), 1e-10
        xc, yc, xh, yh = ct.lift_draws(m, rng, 4, ct.KIND_PAIRS)  # nabla_phi against nabla_phi_defn
        closed = sb.contract(geo.nabla_phi_parts, ct.lift_parts(geo, xc, xh), ct.lift_parts(geo, yc, yh))
        defn = ct.nabla_phi_defn_rows(geo, xc, yc, xh, yh, np.where(xh[:, None], geo.base.nabla(m, xc, yc, yc), 0.0))
        yield "nabla phi closed form = definition", np.abs(closed - defn).max(), 1e-9


def _suite_curvature(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 3, i)
        x = sample_domain_point(m, rng)
        g, r = metric_at(m, x), riemann_at(m, x)
        rl = np.einsum("im,mabc->iabc", g, r)  # rl[d, a, b, c] = g(R(e_a, e_b)e_c, e_d)
        yield "R antisymmetric in last pair", np.abs(rl + np.einsum("dabc->dbac", rl)).max(), 1e-10
        yield "R antisymmetric in first pair", np.abs(rl + np.einsum("dabc->cabd", rl)).max(), 1e-10
        yield "R pair symmetry", np.abs(rl - np.einsum("dabc->adcb", rl)).max(), 1e-10
        bianchi = r + np.einsum("ibca->iabc", r) + np.einsum("icab->iabc", r)
        yield "R first Bianchi identity", np.abs(bianchi).max(), 1e-10
        xv, yv = sample_tangent_plane(m, x, rng)
        yield "sectional curvature = c", abs(_sectional(g, r, xv, yv) - cfg.c), 1e-8

        p = sample_sb_point(m, cfg.eps, rng)
        geo = sb.point_geometry(m, p)
        w = geo.tangential_part(rng.normal(size=n))
        rxu = np.einsum("iabc,a,b,c->i", geo.base.curvature(m)[1], w, p.u, p.u) - cfg.eps * cfg.c * w
        yield "R(X,u)u = eps c X for X perp u", np.abs(rxu).max(), 1e-8

        # curvature symmetries of the induced metric via lowered samples: the 4 vectors of one
        # ``sample_sb_parts`` call, R-bar of the 6 triples the identities read in one ``contract`` (whose
        # one-row case is ``sb_curvature``) and the 4 lowered values in one ``gbar_rows``
        a, b, cc, d = sample_sb_parts(m, p, rng, 4)
        rb = sb.contract(geo.rbar, np.array([a, b, a, cc, b, cc]), np.array([b, a, b, d, cc, a]), np.array([cc, cc, d, a, a, b]))
        low = geo.gbar_rows(rb[:4], np.array([d, d, cc, b]))  # (a,b,c,d), (b,a,c,d), (a,b,d,c), (c,d,a,b)
        yield "R-bar antisymmetry (a,b)", abs(low[0] + low[1]), 1e-8
        yield "R-bar antisymmetry (c,d)", abs(low[0] + low[2]), 1e-8
        yield "R-bar pair symmetry", abs(low[0] - low[3]), 1e-8
        yield "R-bar first Bianchi identity", np.abs(rb[0] + rb[4] + rb[5]).max(), 1e-8

    # constant rescaling of the metric leaves Gamma and the curvature operator unchanged
    lam = 3.7
    scaled = replace(
        m,
        metric_fn=lambda x: lam * m.metric_fn(x),
        deriv1_fn=None if m.deriv1_fn is None else (lambda x: lam * m.deriv1_fn(x)),
        deriv2_fn=None if m.deriv2_fn is None else (lambda x: lam * m.deriv2_fn(x)),
        name=f"{lam} * {m.name}",
    )
    rng = rng_for(cfg.seed, 3, 10_000)
    x = sample_domain_point(m, rng)
    dgamma = np.abs(christoffel_at(m, x) - christoffel_at(scaled, x)).max()
    drr = np.abs(riemann_at(m, x) - riemann_at(scaled, x)).max()
    yield "curvature operator invariant under constant metric scaling", worst_of(dgamma, drr), 1e-10


def _suite_kappa_mu(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    km = ct.kappa_mu_for_space_form(cfg.c, cfg.eps)
    params["kappa"] = km.kappa
    params["mu"] = km.mu
    fits = []
    expect_t = 2.0 - cfg.eps * (1.0 + cfg.c)
    expect_h = cfg.eps * (cfg.c - 1.0)
    for rng, p in _points(cfg, m, 4):
        rep = ct.kappa_mu_residual(m, p, km, rng, num_samples=cfg.num_samples)
        yield from _rows(rep)
        fits.append((rep.params["kappa_fit"], rep.params["mu_fit"]))
        yield from _rows(ct.psi_u_quadratics(m, p, km))

        hop = ct.h_at(m, p)
        ev = hop.eigenvalues()
        expected = np.sort(np.array([expect_t] * (cfg.n - 1) + [expect_h] * (cfg.n - 1) + [0.0]))
        yield "h eigenvalues = {2 - eps(1+c), eps(c-1), 0}", np.abs(ev - expected).max(), 1e-9
        yield "h(xi) = 0", np.abs(hop.apply_rows(hop.xi.comps())).max(), 1e-12
        a, b = sample_sb_parts(m, p, rng, 2)
        yield "h self-adjoint for g_cm", abs(hop.gcm_rows(hop.apply_rows(a), b) - hop.gcm_rows(a, hop.apply_rows(b))), 1e-8
    params["kappa_fit"] = float(np.mean([f[0] for f in fits]))
    params["mu_fit"] = float(np.mean([f[1] for f in fits]))


def _suite_k_contact(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    points = [p for _, p in _points(cfg, m, 5)]
    yield from _rows(
        ct.k_contact_residual(m, points, rng_for(cfg.seed, 5, 10_000), samples_per_point=max(4, cfg.num_samples // 3))
    )


def _suite_sasakian(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    for rng, p in _points(cfg, m, 6):
        yield from _rows(ct.sasakian_residual(m, p, rng, num_samples=max(8, cfg.num_samples // 2)))


def _suite_phi_sectional(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    # per point, the ker eta samples of one ``sample_ker_eta_parts`` call (the draws of as many
    # ``sample_ker_eta_vec`` calls) and K(a, phi a) of all of them in one ``_sectional_rows``, whose
    # one-row case is ``phi_sectional``'s
    values = []
    for rng, p in _points(cfg, m, 7):
        data = ct.contact_data_at(m, p)
        a = sample_ker_eta_parts(m, p, rng, max(2, cfg.num_samples // cfg.num_points + 1))
        ct._require_ker_eta(data, a)
        k, measured = ct._sectional_rows(data, a, data.phi_rows(a), 1e-4)
        values.append(k[measured])
    values = np.concatenate(values)
    spread = float(values.max() - values.min()) if values.size else float("inf")
    mean = float(values.mean()) if values.size else float("nan")
    params["phi_sectional_mean"] = mean
    params["phi_sectional_spread"] = spread
    yield "phi-sectional curvature constant (spread)", spread, 1e-6
    yield "phi-sectional value = eps c^2", abs(mean - cfg.eps * cfg.c**2), 1e-6


def _suite_oracle(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    for i in range(cfg.num_points):
        rng = rng_for(cfg.seed, 8, i)
        x = sample_domain_point(m, rng)
        g_h = orc.fd_christoffel(m.metric_fn, x)
        yield "christoffel_at = Koszul FD oracle", np.abs(christoffel_at(m, x) - g_h).max(), 1e-6
        yield (
            "riemann_at = FD curvature oracle",
            np.abs(riemann_at(m, x) - orc.fd_riemann(lambda y: christoffel_at(m, y), x)).max(),
            1e-5,
        )
        # second-order convergence spot check of the FD Christoffel oracle
        g_h2 = orc.fd_christoffel(m.metric_fn, x, FD_STEP_FIRST / 2.0)
        yield "FD step halving stays within 4x tolerance", np.abs(g_h - g_h2).max() / 4.0, 1e-6

        # The sampled identities below draw in the order of the per-sample loops they stack (the
        # triples (a, b, c) as rows a_0, b_0, c_0, a_1, .. of one ``sample_sb_parts`` call, the pullback
        # pairs likewise, the (X^h, Y^t) pair of the d eta' row, then one lift pair of each kind of
        # ``ct.KIND_PAIRS`` from one normal call), and each side of an identity is one stacked kernel
        # over the rows, whose one-row case is the per-vector function named beside it.
        p = sample_sb_point(m, cfg.eps, rng)
        z0 = np.concatenate([p.x, p.u])
        gauss = orc.gauss_oracle(m, p)
        geo = sb.point_geometry(m, p)
        abc = sample_sb_parts(m, p, rng, 3 * max(2, cfg.num_samples // 8))
        a, b, cvec = abc[0::3], abc[1::3], abc[2::3]
        closed = sb.contract(geo.rbar, a, b, cvec)  # sb_curvature against gauss_curvature_oracle
        yield "sb_curvature = Gauss-equation oracle", np.abs(closed - gauss.curvature_rows(a, b, cvec)).max(), 1e-5
        ii_ab, ii_ba = gauss.second_fundamental_form_rows(a, b), gauss.second_fundamental_form_rows(b, a)
        yield "second fundamental form symmetric", np.abs(ii_ab - ii_ba).max(), 1e-8

        xf = _poly_field(n, rng)
        yf = _poly_field(n, rng)
        y_jets = {ky: gauss.stencil.field_jet(orc.lift_field_fn(m, yf, ky)) for ky in ("h", "v")}  # each differenced once
        for kx, ky in [("h", "h"), ("h", "v"), ("v", "h")]:
            closed_ind = tb.to_induced_coords(m, tb.tm_nabla(m, xf, yf, kx, ky, p.tm))
            amb = orc.ambient_nabla(orc.lift_field_fn(m, xf, kx)(z0), y_jets[ky], gauss.gamma0)
            yield "tm_nabla = FD Christoffels of Tg on lift fields", np.abs(closed_ind - amb).max(), 1e-5

        # induced metric against the solved-chart pullback
        chart = orc.hypersurface_pullback(m, p)
        v = sample_sb_parts(m, p, rng, 6)  # _embed_induced, induced_metric_at
        v1, v2 = v[0::2], v[1::2]
        w1, w2 = chart.drop(orc._embed_induced_rows(m, p, v1)), chart.drop(orc._embed_induced_rows(m, p, v2))
        pulled = np.vecdot(np.vecmat(w1, chart.pullback_metric), w2)
        yield "hypersurface pullback = induced metric", np.abs(pulled - geo.gbar_rows(v1, v2)).max(), 1e-8

        # exterior-derivative oracle: exact forms close, and the signed
        # factor-2 identity 2 d eta'(A, B) = eps gbar(A, phi' B)
        coeffs = rng.normal(size=2 * n)

        def exact_form(z):
            # omega = d f for f = sum coeffs_i z_i^2 / 2
            return coeffs * z

        yield "fd_exterior_derivative of exact form = 0", np.abs(orc.fd_exterior_derivative(exact_form, z0)).max(), 1e-8
        a, b, a0, b0 = ct._lift_pairs(m, p, rng, 1)  # (X^h, Y^t); 2 d eta' = 4 d eta = 2 A^T D B
        two_deta_p = 2 * np.vecdot(np.vecmat(a0, ct.d_eta_tensor(m, p)), b0)
        gbar_phi = geo.gbar_rows(a, ct.contact_data_at(m, p).phi_rows(b))  # induced_metric_at
        yield "2 d eta'(A,B) = eps gbar(A, phi'B)", np.abs(two_deta_p - cfg.eps * gbar_phi).max(), 1e-5

        # closed nabla phi against the FD covariant derivative of the phi field on TM
        nabla_phi_fd = gauss.nabla_endomorphism(ct.phi_matrix_fn(m, cfg.eps))
        xc, yc, xh, yh = ct.lift_draws(m, rng, 4, ct.KIND_PAIRS)  # nabla_phi against nabla_endomorphism
        a, b = ct.lift_parts(geo, xc, xh), ct.lift_parts(geo, yc, yh)
        diff = sb.contract(geo.nabla_phi_parts, a, b) - nabla_phi_fd(a, b)
        yield "nabla phi = FD ambient derivative", np.abs(diff).max(), 1e-5


def _suite_index(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    expected_gbar_neg = 2 * cfg.nu - (1 if cfg.eps == -1 else 0)
    tg_fn = orc.sasaki_metric_fn(m)
    for rng, p in _points(cfg, m, 9):
        pos, neg = signature_at(m, p.x)
        yield "base signature (n - nu, nu)", abs(pos - (cfg.n - cfg.nu)) + abs(neg - cfg.nu), 0.0
        z = np.concatenate([p.x, rng.normal(size=cfg.n)])  # arbitrary fiber point of TM
        eig = np.linalg.eigvalsh(tg_fn(z))
        yield "index of Sasaki metric Tg = 2 nu", abs(int((eig < 0).sum()) - 2 * cfg.nu), 0.0

        gram = sb.frame_gram(m, sb.frame_at(m, p))
        yield "frame Gram diagonal = +-1", np.abs(np.abs(np.diag(gram)) - 1.0).max(), 1e-10
        yield "frame Gram off-diagonal = 0", np.abs(gram - np.diag(np.diag(gram))).max(), 1e-10
        yield (
            "index of induced metric = 2 nu - (eps = -1)",
            abs(int((np.diag(gram) < 0).sum()) - expected_gbar_neg),
            0.0,
        )
        eigw = np.linalg.eigvalsh(orc.hypersurface_pullback(m, p).pullback_metric)
        yield "pullback metric index matches", abs(int((eigw < 0).sum()) - expected_gbar_neg), 0.0


def _suite_brackets(cfg: SuiteConfig, m: ChartedMetric, params: dict):
    n = cfg.n
    labels = {
        ("h", "h"): "[X^h, Y^h] = [X,Y]^h - v{R(X,Y)u}",
        ("h", "v"): "[X^h, Y^v] = (nabla_X Y)^v",
        ("v", "v"): "[X^v, Y^v] = 0",
    }
    sb_labels = {
        ("h", "t"): "[X^h, Y^t] = (nabla_X Y)^t",
        ("t", "t"): "[X^t, Y^t] = eps g(X,u)Y^t - eps g(Y,u)X^t",
        ("h", "h"): "[X^h, Y^h] on T_eps M",
    }
    for rng, p in _points(cfg, m, 10):
        xf = _poly_field(n, rng)
        yf = _poly_field(n, rng)
        stencil = orc.gauss_oracle(m, p).stencil
        jets = {}  # the jet at z0 of each lift of X and Y, each field evaluated once on the stacked stencil rows
        for f in (xf, yf):
            for kind in ("h", "v"):
                jets[f, kind] = stencil.field_jet(orc.lift_field_fn(m, f, kind))
            jets[f, "t"] = stencil.field_jet(orc.sb_lift_field_fn(m, f, "t", cfg.eps))
        for (kx, ky), label in labels.items():
            closed = tb.to_induced_coords(m, tb.lift_bracket(m, xf, yf, kx, ky, p.tm))
            fd = orc.jet_bracket(jets[xf, kx], jets[yf, ky])
            yield label, np.abs(closed - fd).max(), 1e-5
        for (kx, ky), label in sb_labels.items():
            closed = orc._embed_induced(m, sb.sb_bracket(m, xf, yf, kx, ky, p))
            fd = orc.jet_bracket(jets[xf, kx], jets[yf, ky])
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
SUITES = (*_SUITE_FNS, "all")


def run_suite(cfg: SuiteConfig) -> CheckReport:
    """Run one named suite (or the ``all`` matrix) and return its report.

    The suite's rows are folded once by ``report.fold``, with ``cfg.tol``
    overriding every tolerance.
    """
    cfg.validate()
    start = time.perf_counter()
    params = cfg.params()
    if cfg.suite == "all":
        checks = _run_all_matrix(cfg)
    else:
        checks = fold(_SUITE_FNS[cfg.suite](cfg, _chart(cfg), params), cfg.tol)
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
    """One verdict row per (configuration, suite), reported in ``matrix_configs`` order.

    The rows run chart by chart: charts in the order of their first
    configuration, suites in ``_SUITE_FNS`` order, and each suite's eps = +1
    row just before its eps = -1 twin.  A twin draws from the same seed
    streams, so it finds its base points' jets and closed-form g, Gamma and
    R (``base_context``) still in the chart's memos, and only the running
    chart is held.
    """
    global _matrix_charts
    # the meta-suite trades sample counts for matrix coverage
    base = replace(cfg, num_points=max(2, cfg.num_points // 5), num_samples=max(6, cfg.num_samples // 3))
    configs = list(matrix_configs(base))
    charts = {}
    for k, sub_cfg in enumerate(configs):
        charts.setdefault(_chart_key(sub_cfg), []).append(k)
    rows = [{} for _ in configs]
    try:
        for group in charts.values():
            _matrix_charts = {}
            for suite in _SUITE_FNS:
                for k in sorted(group, key=lambda j: -configs[j].eps):
                    one = replace(configs[k], suite=suite)
                    report = run_suite(one)
                    expect = expected_pass(suite, one)
                    label = (
                        f"{suite}[n={one.n},nu={one.nu},eps={one.eps:+d},c={one.c:.6g}]"
                        f" (expect {'pass' if expect else 'fail'})"
                    )
                    rows[k][suite] = CheckItem(label, 0.0 if report.passed == expect else 1.0, 0.0)
    finally:
        _matrix_charts = None
    return [row[suite] for row in rows for suite in _SUITE_FNS]
