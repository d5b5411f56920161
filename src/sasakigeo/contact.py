"""The contact pseudo-metric structure of the tangent sphere bundle.

The structure tensors on T_eps M are the rescaled lift tensors

    xi = 2 u^h,   eta = (1/2) eta',   phi = phi',   g_cm = (1/4) g-bar,

with eta'(X^h) = eps g(X, u), eta'(X^t) = 0, phi'(X^h) = X^t and
phi'(X^t) = -X^h + eps g(X, u) xi'.  Since g_cm is a constant rescaling of
the induced metric, both share the Levi-Civita connection and the curvature
operator; sectional curvatures with respect to g_cm are 4 times those of
g-bar.

Exterior-derivative convention: d(eta)(A, B) is computed as
(1/2)[A(eta(B)) - B(eta(A)) - eta([A, B])].  With this normalization the
axiom d eta = g_cm(. , phi .) holds for eps = +1; for eps = -1 the same
computation yields d eta = eps g_cm(. , phi .), so the strict axiom fails
by a sign on mixed lift pairs and the eps = -1 checks report that honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegeneratePlane
from .manifold import ChartedMetric, SpaceFormSpec
from .oracle import (
    base_jet,
    fd_exterior_derivative,
    fd_lie_derivative_metric,
    fd_nijenhuis,
    geodesic_flow_field_fn,
    hypersurface_pullback,
    sb_lift_field_fn,
)
from .report import CheckItem, CheckReport, worst_of
from .sampling import sample_ker_eta_vec, sample_sb_vec
from .sphere import (
    SBFrame,
    SBPoint,
    SBVec,
    frame_at,
    horizontal_sb,
    induced_metric_at,
    lift,
    parts_metric,
    point_geometry,
    require_same_sb_point,
    sb_curvature,
    sb_nabla,
)
from .tangent import VectorField, field_at


@dataclass(frozen=True)
class KappaMu:
    kappa: float
    mu: float


@dataclass
class ContactData:
    """The tensors (phi, xi, eta, g_cm) at one point of T_eps M."""

    at: SBPoint
    xi: SBVec
    eta: Callable[[SBVec], float]
    phi: Callable[[SBVec], SBVec]
    gcm: Callable[[SBVec, SBVec], float]


@dataclass
class HOperator:
    """The tensor h tying nabla xi to phi, as a matrix in an SBFrame.

    h vanishes on xi and acts on ker(eta) by
    h(V^t) = (2 - eps) V^t - t{R(V, u)u},  h(X^h) = -eps X^h + h{R(X, u)u}.
    """

    at: SBPoint
    frame: SBFrame
    matrix: np.ndarray
    apply: Callable[[SBVec], SBVec]

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.linalg.eigvals(self.matrix).real)


def contact_data_at(m: ChartedMetric, p: SBPoint) -> ContactData:
    geo = point_geometry(m, p)
    g, n = geo.base.g, m.dim
    u, eps = p.u, p.eps
    xi = horizontal_sb(p, 2.0 * u)

    def eta(a: SBVec) -> float:
        require_same_sb_point(p, a)
        return 0.5 * eps * float(a.hpart @ g @ u)

    def phi(a: SBVec) -> SBVec:
        require_same_sb_point(p, a)
        out = geo.phi_parts @ a.comps()
        return SBVec(p, out[:n], out[n:])

    def gcm(a: SBVec, b: SBVec) -> float:
        return 0.25 * induced_metric_at(m, p, a, b)

    return ContactData(p, xi, eta, phi, gcm)


def eta_form_fn(m: ChartedMetric, eps: int):
    """eta as a covector field of induced TM coordinates: z -> ((eps/2) g(x) u, 0)."""
    n = m.dim

    def eta_form(z: np.ndarray) -> np.ndarray:
        return np.concatenate([0.5 * eps * (base_jet(m, z[:n]).g @ z[n:]), np.zeros(n)])

    return eta_form


def d_eta_tensor(m: ChartedMetric, p: SBPoint) -> np.ndarray:
    """D with d(eta)(A, B) = (1/2) A^T D B on induced components at p.

    D = ``fd_exterior_derivative`` of the eta covector field: one stencil per
    point, from raw metric components only.  The factor 1/2 is the
    normalization d(eta)(A, B) = (1/2)[A(eta(B)) - B(eta(A)) - eta([A, B])].
    """
    return fd_exterior_derivative(eta_form_fn(m, p.eps), np.concatenate([p.x, p.u]))


def phi_matrix_fn(m: ChartedMetric, eps: int):
    """phi as an endomorphism field of induced TM components.

    The parts-action (X, Y) -> (-P Y, P X) with P = I - eps u (g u)^T is
    conjugated by the parts->induced transformation (X, Y) -> (X, Y - Gamma(X,u)).
    """
    n = m.dim

    def phim(z: np.ndarray) -> np.ndarray:
        x, u = z[:n], z[n:]
        jet = base_jet(m, x)
        proj = np.eye(n) - eps * np.outer(u, jet.g @ u)
        c = np.einsum("iab,b->ia", jet.gamma, u)
        mp = np.zeros((2 * n, 2 * n))
        mp[:n, n:] = -proj
        mp[n:, :n] = proj
        t = np.eye(2 * n)
        t[n:, :n] = -c
        tinv = np.eye(2 * n)
        tinv[n:, :n] = c
        return t @ mp @ tinv

    return phim


def d_eta_fd(
    m: ChartedMetric,
    p: SBPoint,
    xfield: VectorField,
    kind_x: str,
    yfield: VectorField,
    kind_y: str,
) -> float:
    """d(eta)(A, B) of lift fields: (1/2) A^T D B with D = ``d_eta_tensor(m, p)``.

    d eta is a 2-form, so only the lift values at p enter.  To check several
    pairs at one point, build D once and contract it with each pair.
    """
    z0 = np.concatenate([p.x, p.u])
    a0 = sb_lift_field_fn(m, xfield, kind_x, p.eps)(z0)
    b0 = sb_lift_field_fn(m, yfield, kind_y, p.eps)(z0)
    return 0.5 * float(a0 @ d_eta_tensor(m, p) @ b0)


def check_contact_axioms(
    m: ChartedMetric,
    p: SBPoint,
    rng: np.random.Generator,
    num_samples: int = 50,
) -> CheckReport:
    """Residuals of the four structure axioms at one point.

    Algebraic: eta(xi) = 1, g_cm(xi, xi) = eps, phi(xi) = 0,
    phi^2 = -Id + eta (x) xi, g_cm(phi., phi.) = g_cm - eps eta (x) eta.
    FD: d eta (. , .) = g_cm(. , phi .) on sampled lift-field pairs, with
    d eta from one ``d_eta_tensor`` per point.
    """
    data = contact_data_at(m, p)
    eps, n = p.eps, m.dim
    res_eta_xi = abs(data.eta(data.xi) - 1.0)
    res_gcm_xi = abs(data.gcm(data.xi, data.xi) - eps)
    res_phi_xi = float(np.abs(data.phi(data.xi).comps()).max())

    res_phi_sq = 0.0
    res_compat = 0.0
    for _ in range(num_samples):
        a = sample_sb_vec(m, p, rng)
        b = sample_sb_vec(m, p, rng)
        lhs = data.phi(data.phi(a))
        rhs = (-1.0) * a + data.eta(a) * data.xi
        res_phi_sq = worst_of(res_phi_sq, np.abs(lhs.comps() - rhs.comps()).max())
        comp = data.gcm(data.phi(a), data.phi(b)) - (
            data.gcm(a, b) - eps * data.eta(a) * data.eta(b)
        )
        res_compat = worst_of(res_compat, abs(comp))

    res_deta = 0.0
    z0 = np.concatenate([p.x, p.u])
    deta_t = d_eta_tensor(m, p)
    kinds = [("h", "t"), ("h", "h"), ("t", "t"), ("t", "h")]
    for k in range(max(8, num_samples // 4)):
        kx, ky = kinds[k % 4]
        xc = rng.normal(size=n)
        yc = rng.normal(size=n)
        a0 = sb_lift_field_fn(m, xc, kx, eps)(z0)
        b0 = sb_lift_field_fn(m, yc, ky, eps)(z0)
        deta = 0.5 * float(a0 @ deta_t @ b0)
        res_deta = worst_of(res_deta, abs(deta - data.gcm(lift(m, p, kx, xc), data.phi(lift(m, p, ky, yc)))))

    checks = [
        CheckItem("eta(xi) = 1", res_eta_xi, 1e-12),
        CheckItem("g_cm(xi, xi) = eps", res_gcm_xi, 1e-12),
        CheckItem("phi(xi) = 0", res_phi_xi, 1e-12),
        CheckItem("phi^2 = -Id + eta@xi", res_phi_sq, 1e-10),
        CheckItem("g_cm(phi.,phi.) = g_cm - eps eta@eta", res_compat, 1e-10),
        CheckItem("d eta = g_cm(., phi .)", res_deta, 1e-5),
    ]
    return CheckReport.build("contact-axioms", {}, checks)


def nabla_xi(m: ChartedMetric, p: SBPoint, a: SBVec) -> SBVec:
    """nabla-bar_a xi = Gamma-bar(a, XI) + a(XI) on parts, XI = (2u, 0); a(XI) = (2W, 0)
    for a = X^h + W^t with g(W, u) = 0 (the ``SBVec`` invariant), as u is parallel
    along horizontal lifts:

    nabla_{X^h} xi = -t{R(X, u)u} (g-orthogonal to u);  nabla_{W^t} xi = 2 W^h - h{R(W, u)u}.
    """
    require_same_sb_point(p, a)
    n = m.dim
    out = (point_geometry(m, p).connection @ np.concatenate([2.0 * p.u, np.zeros(n)])) @ a.comps()
    out[:n] += 2.0 * a.tpart
    return SBVec(p, out[:n], out[n:])


def h_at(m: ChartedMetric, p: SBPoint) -> HOperator:
    """The operator h = (matrix in ``frame_at(m, p)``, pointwise action).

    Both come from one array on the (h, t) parts, ``PointGeometry.h_parts``.
    """
    geo = point_geometry(m, p)
    n = m.dim
    hmat = geo.h_parts

    def apply(a: SBVec) -> SBVec:
        require_same_sb_point(p, a)
        out = hmat @ a.comps()
        return SBVec(p, out[:n], out[n:])

    frame = frame_at(m, p)
    f = frame.parts()
    matrix = frame.signs[:, None] * parts_metric(geo.base.g, f, hmat @ f)
    return HOperator(p, frame, matrix, apply)


def nabla_phi(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec) -> SBVec:
    """(nabla-bar_a phi) b = a(PHI) b + Gamma-bar(a, PHI b) - PHI Gamma-bar(a, b) on parts.

    The t parts W and Z of a = X^h + W^t and b = Y^h + Z^t must be
    u-orthogonal (the ``SBVec`` invariant).  On such parts PHI =
    ``PointGeometry.phi_parts`` acts as [[0, -P], [P, 0]], and P is parallel
    along horizontal lifts, so
    a(PHI) b = (-a(P) Z, a(P) Y) with a(P) = -eps (W (g u)^T + u (g W)^T):

    (nabla_{X^h} phi) Y^h = 1/2 h{R(u, X)Y}
    (nabla_{X^h} phi) Y^t = 1/2 t{R(X, u)Y}
    (nabla_{W^t} phi) Y^h = 1/2 t{R(W, u)Y} - 2 eta(Y^h) W^t
    (nabla_{W^t} phi) Z^t = 1/2 h{R(W, u)Z} + 2 eps g_cm(W^t, Z^t) xi
    """
    require_same_sb_point(p, a, b)
    geo = point_geometry(m, p)
    n, u, w, eps = m.dim, p.u, a.tpart, p.eps
    conn, phi, gu, gw = geo.connection, geo.phi_parts, geo.gu, geo.base.g @ a.tpart
    av, bv = a.comps(), b.comps()

    def a_p(y: np.ndarray) -> np.ndarray:
        return -eps * (w * float(gu @ y) + u * float(gw @ y))

    out = np.concatenate([-a_p(b.tpart), a_p(b.hpart)])
    out += (conn @ (phi @ bv)) @ av - phi @ ((conn @ bv) @ av)
    return SBVec(p, out[:n], geo.proj @ out[n:])


def nabla_phi_defn(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_a: str,
    kind_b: str,
    p: SBPoint,
) -> SBVec:
    """(nabla_a phi) b = nabla_a(phi b) - phi(nabla_a b) on lift fields.

    For b = Y^t the field phi(b) = -Y^h + s xi' with s(x, u) = eps g(Y, u)
    is differentiated by the product rule; a(s) is eps g(nabla_X Y, u) for a
    horizontal direction and eps g(Y, W) for a tangential direction W.
    """
    data = contact_data_at(m, p)
    geo = point_geometry(m, p)
    g = geo.base.g
    u, eps = p.u, p.eps
    xval = field_at(xfield, p.x)
    yval = field_at(yfield, p.x)
    if kind_b == "h":
        term1 = sb_nabla(m, xfield, yfield, kind_a, "t", p)
    else:
        term1 = (-1.0) * sb_nabla(m, xfield, yfield, kind_a, "h", p)
        if kind_a == "h":
            a_of_s = eps * float(geo.base.nabla(xval, yfield) @ g @ u)
        else:
            wt = xval - eps * float(xval @ g @ u) * u
            a_of_s = eps * float(yval @ g @ wt)
        s0 = eps * float(yval @ g @ u)
        a_vec = lift(m, p, kind_a, xval)
        xi_prime = horizontal_sb(p, u)
        term1 = term1 + a_of_s * xi_prime + (0.5 * s0) * nabla_xi(m, p, a_vec)
    term2 = data.phi(sb_nabla(m, xfield, yfield, kind_a, kind_b, p))
    return term1 - term2


def kappa_mu_for_space_form(spec: SpaceFormSpec | float, eps: int) -> KappaMu:
    """kappa = c(4 - eps(c + 2)), mu = -2c; checks the coefficient identity
    eps*kappa = c(4 eps - (c + 2))."""
    c = spec.curvature if isinstance(spec, SpaceFormSpec) else float(spec)
    kappa = c * (4.0 - eps * (c + 2.0)) + 0.0  # + 0.0 normalizes -0.0
    mu = -2.0 * c + 0.0
    assert abs(eps * kappa - c * (4.0 * eps - (c + 2.0))) < 1e-12
    return KappaMu(kappa, mu)


def kappa_mu_residual(
    m: ChartedMetric,
    p: SBPoint,
    km: KappaMu,
    rng: np.random.Generator,
    num_samples: int = 20,
) -> CheckReport:
    """Residual of R(a,b)xi = eps kappa(eta(b)a - eta(a)b) + eps mu(eta(b)ha - eta(a)hb).

    The residual vector is measured in the Euclidean norm of its
    (horizontal, tangential) components: the pseudo-metric norm could
    vanish on a nonzero null residual.  A least-squares (kappa, mu) fit
    over the samples is echoed for diagnostics.
    """
    data = contact_data_at(m, p)
    eps = p.eps
    xi = data.xi
    geo = point_geometry(m, p)
    hmat = geo.h_parts
    rb_xi = geo.rbar @ xi.comps()  # R-bar(., .)xi
    worst = 0.0
    rows, rhs_list = [], []
    for k in range(num_samples):
        a = sample_sb_vec(m, p, rng)
        b = xi if k % 3 == 0 else sample_sb_vec(m, p, rng)
        lhs = (rb_xi @ b.comps()) @ a.comps()
        e_a, e_b = data.eta(a), data.eta(b)
        v1 = eps * (e_b * a + (-e_a) * b)
        v2 = eps * (e_b * (hmat @ a.comps()) + (-e_a) * (hmat @ b.comps()))
        resid = lhs - km.kappa * v1.comps() - km.mu * v2
        worst = worst_of(worst, np.linalg.norm(resid))
        rows.append(np.stack([v1.comps(), v2], axis=1))
        rhs_list.append(lhs)
    design = np.concatenate(rows, axis=0)
    fit, *_ = np.linalg.lstsq(design, np.concatenate(rhs_list), rcond=None)
    params = {
        "kappa": km.kappa,
        "mu": km.mu,
        "kappa_fit": float(fit[0]),
        "mu_fit": float(fit[1]),
    }
    return CheckReport.build(
        "kappa-mu", params, [CheckItem("(kappa,mu)-nullity residual", worst, 1e-8)]
    )


def psi_u_matrix(m: ChartedMetric, p: SBPoint) -> np.ndarray:
    """Matrix of psi_u = R(., u)u on the g-orthogonal complement of u."""
    geo = point_geometry(m, p)
    base_frame, base_signs = geo.base_frame
    es = np.stack(base_frame, axis=1)
    return base_signs[:, None] * (es.T @ geo.base.g @ geo.ruu @ es)


def psi_u_quadratics(m: ChartedMetric, p: SBPoint, km: KappaMu) -> CheckReport:
    """Operator residuals of the two nullity quadratics and their common root.

    psi^2 + eps mu psi - eps(kappa + (2 - eps) mu) I = 0
    3 psi^2 + (eps mu - 4) psi + (eps kappa - mu) I = 0
    and a = eps c solves both scalar quadratics.
    """
    eps = p.eps
    kappa, mu = km.kappa, km.mu
    psi = psi_u_matrix(m, p)
    k = psi.shape[0]
    eye = np.eye(k)
    q1 = psi @ psi + eps * mu * psi - eps * (kappa + (2.0 - eps) * mu) * eye
    q2 = 3.0 * psi @ psi + (eps * mu - 4.0) * psi + (eps * kappa - mu) * eye
    a = -0.5 * eps * mu  # the common root eps*c, using mu = -2c
    s1 = abs(a * a + eps * mu * a - (eps * kappa + (2.0 * eps - 1.0) * mu))
    s2 = abs(a * a + (eps * mu - 4.0) / 3.0 * a + (eps * kappa - mu) / 3.0)
    checks = [
        CheckItem("psi_u quadratic (vertical branch)", np.linalg.norm(q1, 2), 1e-8),
        CheckItem("psi_u quadratic (horizontal branch)", np.linalg.norm(q2, 2), 1e-8),
        CheckItem("common root a = eps c (vertical)", s1, 1e-10),
        CheckItem("common root a = eps c (horizontal)", s2, 1e-10),
    ]
    return CheckReport.build("psi-u-quadratics", {}, checks)


def killing_residual(m: ChartedMetric, p: SBPoint) -> float:
    """max |(L_xi g_cm)_ab| in the solved hypersurface chart at p."""
    chart = hypersurface_pullback(m, p)
    gcm_fn = chart.pullback_metric_fn(scale=0.25)
    flow = geodesic_flow_field_fn(m, scale=2.0)

    def flow_w(w):
        return chart.drop(flow(chart.param_fn(w)))

    lie = fd_lie_derivative_metric(flow_w, gcm_fn, chart.center)
    return float(np.abs(lie).max())


def xi_plane_curvature(m: ChartedMetric, p: SBPoint, a: SBVec) -> float:
    """Sectional curvature (for g_cm) of the plane spanned by xi and a."""
    data = contact_data_at(m, p)
    xi = data.xi
    den = data.gcm(xi, xi) * data.gcm(a, a) - data.gcm(xi, a) ** 2
    if abs(den) <= 1e-8:
        raise DegeneratePlane("plane span(xi, a) is degenerate")
    riem = sb_curvature(m, p, xi, a, a)
    return data.gcm(riem, xi) / den


def k_contact_residual(
    m: ChartedMetric,
    points: list,
    rng: np.random.Generator,
    samples_per_point: int = 8,
) -> CheckReport:
    """Two K-contact residuals: Killing (FD Lie derivative of g_cm along the
    geodesic-flow field) and |K(xi, a) - eps| over nondegenerate planes."""
    worst_killing = 0.0
    worst_plane = 0.0
    planes = 0
    for p in points:
        worst_killing = worst_of(worst_killing, killing_residual(m, p))
        eps = p.eps
        samples = []
        base = sample_ker_eta_vec(m, p, rng)
        samples.append(SBVec(p, base.hpart, np.zeros(m.dim)))  # pure horizontal
        samples.append(SBVec(p, np.zeros(m.dim), base.tpart))  # pure tangential
        for _ in range(samples_per_point - 2):
            samples.append(sample_ker_eta_vec(m, p, rng))
        data = contact_data_at(m, p)
        for a in samples:
            den = data.gcm(data.xi, data.xi) * data.gcm(a, a) - data.gcm(data.xi, a) ** 2
            if abs(den) <= 1e-4:
                continue
            worst_plane = worst_of(worst_plane, abs(xi_plane_curvature(m, p, a) - eps))
            planes += 1
    checks = [
        CheckItem("L_xi g_cm = 0 (Killing)", worst_killing, 1e-5),
        # a check that measured no plane has shown nothing, so it fails
        CheckItem("K(xi-plane) = eps", worst_plane if planes else math.inf, 1e-5),
    ]
    return CheckReport.build("k-contact", {}, checks)


def phi_sectional(m: ChartedMetric, p: SBPoint, a: SBVec) -> float:
    """Sectional curvature (for g_cm) of span(a, phi a) for a in ker eta."""
    data = contact_data_at(m, p)
    if abs(data.eta(a)) > 1e-10:
        raise DegeneratePlane("phi-sectional curvature needs a in ker(eta)")
    phia = data.phi(a)
    den = data.gcm(a, a) * data.gcm(phia, phia) - data.gcm(a, phia) ** 2
    if abs(den) <= 1e-8:
        raise DegeneratePlane("plane span(a, phi a) is degenerate")
    riem = sb_curvature(m, p, a, phia, phia)
    return data.gcm(riem, a) / den


def sasakian_residual(
    m: ChartedMetric,
    p: SBPoint,
    rng: np.random.Generator,
    num_samples: int = 12,
) -> CheckReport:
    """Residuals of both Sasakian characterizations.

    (i) N_phi(A, B) + 2 d eta(A, B) xi = 0, contracting the FD Nijenhuis
        tensor of phi and ``d_eta_tensor``, each built once per point, with
        the lift fields at p;
    (ii) (nabla_a phi) b = g_cm(a, b) xi - eps eta(b) a via the closed forms.
    """
    data = contact_data_at(m, p)
    eps, n = p.eps, m.dim
    z0 = np.concatenate([p.x, p.u])
    nphi_t = fd_nijenhuis(phi_matrix_fn(m, eps), z0)
    deta_t = d_eta_tensor(m, p)
    xi_ind = geodesic_flow_field_fn(m, scale=2.0)(z0)

    worst_nphi = 0.0
    worst_grad = 0.0
    kinds = [("h", "t"), ("h", "h"), ("t", "t"), ("t", "h")]
    for k in range(num_samples):
        kx, ky = kinds[k % 4]
        xc = rng.normal(size=n)
        yc = rng.normal(size=n)
        a0 = sb_lift_field_fn(m, xc, kx, eps)(z0)
        b0 = sb_lift_field_fn(m, yc, ky, eps)(z0)
        nphi = (nphi_t @ b0) @ a0
        two_deta = float(a0 @ deta_t @ b0)
        worst_nphi = worst_of(worst_nphi, np.abs(nphi + two_deta * xi_ind).max())

        a_sb = lift(m, p, kx, xc)
        b_sb = lift(m, p, ky, yc)
        lhs = nabla_phi(m, p, a_sb, b_sb)
        rhs = data.gcm(a_sb, b_sb) * data.xi + (-eps * data.eta(b_sb)) * a_sb
        worst_grad = worst_of(worst_grad, np.abs(lhs.comps() - rhs.comps()).max())
    checks = [
        CheckItem("N_phi + 2 d eta @ xi = 0", worst_nphi, 1e-5),
        CheckItem("(nabla phi) = g_cm @ xi - eps eta @ id", worst_grad, 1e-5),
    ]
    return CheckReport.build("sasakian", {}, checks)
