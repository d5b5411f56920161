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
from functools import cached_property

import numpy as np

from .errors import DegeneratePlane
from .manifold import ChartedMetric
from .oracle import (
    base_jet,
    exterior_derivative,
    geodesic_flow_field_fn,
    hypersurface_pullback,
    lie_derivative_metric,
    nijenhuis,
    read_stencil_jets,
    sasaki_metric_fn,
    sb_lift_field_fn,
)
from .report import CheckReport, fold
from .sampling import sample_ker_eta_vec, sample_sb_parts, sample_sb_vec
from .sphere import (
    PointGeometry,
    SBPoint,
    SBVec,
    contract,
    horizontal_sb,
    lift,
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


@dataclass(frozen=True, eq=False)
class ContactData:
    """The tensors (phi, xi, eta, g_cm) at ``at``, a view of its ``geo`` = ``point_geometry(m, p)``: xi is
    built once per view, and eta, phi and g_cm are each one product with the kept g, ``phi_parts`` or ``gbar``.

    ``eta_rows``, ``phi_rows`` and ``gcm_rows`` take (h, t) parts, one vector or a stack of rows (..., 2n),
    with one ``np.vecmat``, ``np.matvec`` or ``np.vecdot`` product per row; ``eta``, ``phi`` and ``gcm`` are
    their one-row case on ``SBVec``, so a row of a stack equals the per-vector value bit for bit.  The
    factors 1/2 and eps of eta and 1/4 of g_cm are exact, so scaling the product's result rounds as
    scaling its inputs would.
    """

    at: SBPoint
    geo: PointGeometry

    @cached_property
    def xi(self) -> SBVec:
        return horizontal_sb(self.at, 2.0 * self.at.u)

    def eta_rows(self, parts: np.ndarray) -> np.ndarray:
        n = self.at.u.size
        return 0.5 * np.vecdot(np.vecmat(parts[..., :n], self.geo.base.g), self.geo.eps_u)

    def phi_rows(self, parts: np.ndarray) -> np.ndarray:
        return np.matvec(self.geo.phi_parts, parts)

    def gcm_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 0.25 * np.vecdot(np.vecmat(a, self.geo.gbar), b)

    def eta(self, a: SBVec) -> float:
        require_same_sb_point(self.at, a)
        return float(self.eta_rows(a.comps()))

    def phi(self, a: SBVec) -> SBVec:
        require_same_sb_point(self.at, a)
        return SBVec.of(self.at, self.phi_rows(a.comps()))

    def gcm(self, a: SBVec, b: SBVec) -> float:
        require_same_sb_point(self.at, a, b)
        return float(self.gcm_rows(a.comps(), b.comps()))


class HOperator(ContactData):
    """The contact view at ``at`` with the tensor h tying nabla xi to phi.

    h vanishes on xi and acts on ker(eta) by
    h(V^t) = (2 - eps) V^t - t{R(V, u)u},  h(X^h) = -eps X^h + h{R(X, u)u}.
    ``apply`` is ``PointGeometry.h_parts`` on (h, t) parts and ``matrix`` is
    ``PointGeometry.h_matrix``, h's matrix in ``frame_at(m, p)``.
    """

    @property
    def matrix(self) -> np.ndarray:
        return self.geo.h_matrix

    def apply(self, a: SBVec) -> SBVec:
        require_same_sb_point(self.at, a)
        return SBVec.of(self.at, self.geo.h_parts @ a.comps())

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.linalg.eigvals(self.matrix).real)


def contact_data_at(m: ChartedMetric, p: SBPoint) -> ContactData:
    """The ``ContactData`` view of ``point_geometry(m, p)``."""
    return ContactData(p, point_geometry(m, p))


def eta_form_fn(m: ChartedMetric, eps: int):
    """eta as a covector field of induced TM coordinates: z -> ((eps/2) g(x) u, 0).

    ``eta_form(z)`` reads g at x; ``eta_form(z, jets)`` takes it from
    ``jets``, so z may be the stacked rows of a ``StencilJets``.
    """
    n = m.dim

    def eta_form(z: np.ndarray, jets=None) -> np.ndarray:
        g = base_jet(m, z[:n]).g if jets is None else jets.g
        u = z[..., n:]
        return np.concatenate([0.5 * eps * (g @ u[..., None])[..., 0], np.zeros(u.shape)], axis=-1)

    return eta_form


def d_eta_tensor(m: ChartedMetric, p: SBPoint) -> np.ndarray:
    """D with d(eta)(A, B) = (1/2) A^T D B on induced components at p.

    D is the ``exterior_derivative`` of the eta covector field, evaluated
    once on the stacked rows of p's stencil (``read_stencil_jets``) and
    differenced there: raw metric components only, and bit for bit
    ``fd_exterior_derivative(eta_form_fn(m, eps), z0)``.  The factor 1/2 is
    the normalization d(eta)(A, B) = (1/2)[A(eta(B)) - B(eta(A)) - eta([A, B])].
    """
    return _d_eta_on(m, p.eps, _stencil(m, p))


def _stencil(m: ChartedMetric, p: SBPoint):
    """The ``StencilJets`` of p's induced coordinates z0 = (x, u)."""
    return read_stencil_jets(m, np.concatenate([p.x, p.u]))


def _d_eta_on(m: ChartedMetric, eps: int, jets) -> np.ndarray:
    """``d_eta_tensor`` from the ``StencilJets`` of its point."""
    return exterior_derivative(jets.derivative(eta_form_fn(m, eps))[1])


def phi_matrix_fn(m: ChartedMetric, eps: int):
    """phi as an endomorphism field of induced TM components.

    The parts-action (X, Y) -> (-P Y, P X) with P = I - eps u (g u)^T is
    conjugated by the parts->induced transformation (X, Y) -> (X, Y - Gamma(X,u)).
    ``phim(z)`` reads the jet at x; ``phim(z, jets)`` takes g and Gamma from
    ``jets``, so z may be the stacked rows of a ``StencilJets``.
    """
    n = m.dim

    def phim(z: np.ndarray, jets=None) -> np.ndarray:
        jet = base_jet(m, z[:n]) if jets is None else jets
        u = z[..., n:]
        gu = (jet.g @ u[..., None])[..., 0]
        proj = np.eye(n) - eps * (u[..., :, None] * gu[..., None, :])
        c = np.einsum("...iab,...b->...ia", jet.gamma, u)
        mp = np.zeros(z.shape[:-1] + (2 * n, 2 * n))
        mp[..., :n, n:] = -proj
        mp[..., n:, :n] = proj
        t = np.empty_like(mp)
        t[...] = np.eye(2 * n)
        tinv = t.copy()
        t[..., n:, :n] = -c
        tinv[..., n:, :n] = c
        return t @ mp @ tinv

    return phim


def nijenhuis_tensor(m: ChartedMetric, p: SBPoint) -> np.ndarray:
    """``N[i, j, k]`` = N^i_jk of phi on induced components at p: the ``nijenhuis`` tensor of the phi
    matrix field, evaluated once on the stacked rows of p's stencil and differenced there, bit for bit
    ``fd_nijenhuis(phi_matrix_fn(m, eps), z0)``."""
    return _nijenhuis_on(m, p.eps, _stencil(m, p))


def _nijenhuis_on(m: ChartedMetric, eps: int, jets) -> np.ndarray:
    """``nijenhuis_tensor`` from the ``StencilJets`` of its point."""
    return nijenhuis(*jets.derivative(phi_matrix_fn(m, eps)))


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


def _require_samples(count: int, what: str) -> None:
    """A check that measured no sample has shown nothing, so it refuses to run."""
    if count < 1:
        raise ValueError(f"{what} must be >= 1, got {count}")


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

    Draw order: the num_samples pairs (a, b) first, as 2 num_samples rows
    a_0, b_0, a_1, b_1, .. of one ``sample_sb_parts`` call, then the
    max(8, num_samples // 4) lift pairs of ``_lift_pairs``, so the
    numbers are those of the per-sample loops of ``sample_sb_vec`` and
    ``normal(size=n)`` calls.  Each sampled identity is one stacked
    contraction over the rows (``ContactData.*_rows``, ``contract``),
    and a check reports the largest residual of its rows; a NaN row is
    reported as NaN.
    """
    _require_samples(num_samples, "num_samples")
    return CheckReport.build("contact-axioms", {}, fold(_contact_axiom_rows(m, p, rng, num_samples)))


def _contact_axiom_rows(m: ChartedMetric, p: SBPoint, rng: np.random.Generator, num_samples: int):
    data = contact_data_at(m, p)
    eps = p.eps
    yield "eta(xi) = 1", abs(data.eta(data.xi) - 1.0), 1e-12
    yield "g_cm(xi, xi) = eps", abs(data.gcm(data.xi, data.xi) - eps), 1e-12
    yield "phi(xi) = 0", float(np.abs(data.phi(data.xi).comps()).max()), 1e-12

    ab = sample_sb_parts(m, p, rng, 2 * num_samples)
    a, b = ab[0::2], ab[1::2]
    phi_a, eta_a = data.phi_rows(a), data.eta_rows(a)
    rhs = -a + eta_a[:, None] * data.xi.comps()
    yield "phi^2 = -Id + eta@xi", np.abs(data.phi_rows(phi_a) - rhs).max(), 1e-10
    comp = data.gcm_rows(phi_a, data.phi_rows(b)) - (data.gcm_rows(a, b) - eps * eta_a * data.eta_rows(b))
    yield "g_cm(phi.,phi.) = g_cm - eps eta@eta", np.abs(comp).max(), 1e-10

    deta_t = d_eta_tensor(m, p)
    a, b, a0, b0 = _lift_pairs(m, p, rng, max(8, num_samples // 4))
    residuals = 0.5 * contract(deta_t, a0, b0)[:, 0] - data.gcm_rows(a, data.phi_rows(b))
    yield "d eta = g_cm(., phi .)", np.abs(residuals).max(), 1e-5


_LIFT_KINDS = (("h", "t"), ("h", "h"), ("t", "t"), ("t", "h"))  # the (X, Y) kinds of successive lift pairs


def _lift_pairs(m: ChartedMetric, p: SBPoint, rng: np.random.Generator, count: int) -> tuple:
    """(A, B, A0, B0) for ``count`` lift pairs (X^., Y^.) of random base vectors, cycling through
    ``_LIFT_KINDS``: row k of A and B holds the parts of pair k (``lift``), and row k of A0 and B0
    its induced TM components at p, the value at z0 of the lift field of the constant stack of base
    vectors (``oracle.sb_lift_field_fn``).

    X and Y of every pair come from one ``rng.normal`` call, in the order X_0, Y_0, X_1, ..,
    as ``count`` pairs of ``normal(size=n)`` calls would draw them.
    """
    z0 = np.concatenate([p.x, p.u])
    draws = rng.normal(size=(count, 2, m.dim))
    horizontal = (np.array(_LIFT_KINDS) == "h")[np.arange(count) % 4]
    geo = point_geometry(m, p)
    parts, comps = [], []
    for slot in (0, 1):
        w, h = draws[:, slot], horizontal[:, slot, None]
        zero = np.zeros(w.shape)
        hlift, tlift = np.concatenate([w, zero], axis=1), np.concatenate([zero, geo.tangential_part(w)], axis=1)
        parts.append(np.where(h, hlift, tlift))
        comps.append(np.where(h, sb_lift_field_fn(m, w, "h", p.eps)(z0), sb_lift_field_fn(m, w, "t", p.eps)(z0)))
    return parts[0], parts[1], comps[0], comps[1]


def nabla_xi(m: ChartedMetric, p: SBPoint, a: SBVec) -> SBVec:
    """nabla-bar_a xi = Gamma-bar(a, XI) + a(XI) on parts, XI = (2u, 0); a(XI) = (2W, 0)
    for a = X^h + W^t with g(W, u) = 0 (the ``SBVec`` invariant), as u is parallel
    along horizontal lifts:

    nabla_{X^h} xi = -t{R(X, u)u} (g-orthogonal to u);  nabla_{W^t} xi = 2 W^h - h{R(W, u)u}.
    """
    require_same_sb_point(p, a)
    out = point_geometry(m, p).connection_xi @ a.comps()
    out[: m.dim] += 2.0 * a.tpart
    return SBVec.of(p, out)


def h_at(m: ChartedMetric, p: SBPoint) -> HOperator:
    """The ``HOperator`` view of ``point_geometry(m, p)``: the contact tensors at p and h."""
    return HOperator(p, point_geometry(m, p))


def nabla_phi(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec) -> SBVec:
    """(nabla-bar_a phi) b = a(PHI) b + Gamma-bar(a, PHI b) - PHI Gamma-bar(a, b) on parts.

    The t parts W and Z of a = X^h + W^t and b = Y^h + Z^t must be
    u-orthogonal (the ``SBVec`` invariant).  The one-row case of the stacked
    kernel ``contract(N, A, B)`` with N = ``PointGeometry.nabla_phi_parts``
    (built once per point, where the a(P) term is written), which the
    ``sasakian`` rows contract with all their pairs at once:

    (nabla_{X^h} phi) Y^h = 1/2 h{R(u, X)Y}
    (nabla_{X^h} phi) Y^t = 1/2 t{R(X, u)Y}
    (nabla_{W^t} phi) Y^h = 1/2 t{R(W, u)Y} - 2 eta(Y^h) W^t
    (nabla_{W^t} phi) Z^t = 1/2 h{R(W, u)Z} + 2 eps g_cm(W^t, Z^t) xi
    """
    require_same_sb_point(p, a, b)
    return SBVec.of(p, contract(point_geometry(m, p).nabla_phi_parts, a.comps(), b.comps()))


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
            a_of_s = eps * float(geo.base.nabla(m, xval, yfield, yval) @ g @ u)
        else:
            a_of_s = eps * float(yval @ g @ geo.tangential_part(xval))
        s0 = eps * float(yval @ g @ u)
        a_vec = lift(m, p, kind_a, xval)
        xi_prime = horizontal_sb(p, u)
        term1 = term1 + a_of_s * xi_prime + (0.5 * s0) * nabla_xi(m, p, a_vec)
    term2 = SBVec.of(p, geo.phi_parts @ sb_nabla(m, xfield, yfield, kind_a, kind_b, p).comps())
    return term1 - term2


def kappa_mu_for_space_form(c: float, eps: int) -> KappaMu:
    """kappa = c(4 - eps(c + 2)), mu = -2c; checks the coefficient identity
    eps*kappa = c(4 eps - (c + 2))."""
    c = float(c)
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

    One least-squares system per point stacks each sample's design rows [v1, h v1],
    v1 = eps(eta(b)a - eta(a)b), and left side R-bar(a, b)xi.  It gives the residual at
    (kappa, mu), in the Euclidean norm of the (h, t) components (the pseudo-metric norm
    could vanish on a nonzero null residual), the residual at (kappa + 0.1, mu), which
    must reach 1e-2, and the least-squares (kappa, mu) fit, echoed for diagnostics.
    """
    _require_samples(num_samples, "num_samples")
    data = contact_data_at(m, p)
    rb_xi = data.geo.rbar @ data.xi.comps()  # R-bar(., .)xi
    lhs, v1 = [], []
    for k in range(num_samples):
        a = sample_sb_vec(m, p, rng)
        b = data.xi if k % 3 == 0 else sample_sb_vec(m, p, rng)
        lhs.append((rb_xi @ b.comps()) @ a.comps())
        v1.append((p.eps * (data.eta(b) * a + (-data.eta(a)) * b)).comps())
    lhs, v1 = np.array(lhs), np.array(v1)
    design = np.stack([v1, v1 @ data.geo.h_parts.T], axis=-1)  # [sample, component, (kappa, mu)]

    def residuals(kappa: float, mu: float) -> np.ndarray:
        return np.linalg.norm(lhs - design @ np.array([kappa, mu]), axis=1)

    finite = np.isfinite(design).all() and np.isfinite(lhs).all()  # else the residuals are NaN and fail
    fit = np.linalg.lstsq(design.reshape(-1, 2), lhs.ravel(), rcond=None)[0] if finite else (math.nan, math.nan)
    params = {"kappa": km.kappa, "mu": km.mu, "kappa_fit": float(fit[0]), "mu_fit": float(fit[1])}
    rows = [("(kappa,mu)-nullity residual", r, 1e-8) for r in residuals(km.kappa, km.mu)]
    # the fold clamps at 0, so the row passes once the perturbed worst reaches 1e-2 (a NaN fails)
    rows.append(("sensitivity: residual(kappa + 0.1) >= 1e-2", 1e-2 - residuals(km.kappa + 0.1, km.mu).max(), 0.0))
    return CheckReport.build("kappa-mu", params, fold(rows))


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
    rows = [
        ("psi_u quadratic (vertical branch)", np.linalg.norm(q1, 2), 1e-8),
        ("psi_u quadratic (horizontal branch)", np.linalg.norm(q2, 2), 1e-8),
        ("common root a = eps c (vertical)", s1, 1e-10),
        ("common root a = eps c (horizontal)", s2, 1e-10),
    ]
    return CheckReport.build("psi-u-quadratics", {}, fold(rows))


def killing_residual(m: ChartedMetric, p: SBPoint) -> float:
    """max |(L_xi g_cm)_ab| in the solved hypersurface chart at p.

    xi is tangent to T_eps M, so L_xi g_cm = (1/4) J^T (L_xi Tg) J, with J the chart's exact Jacobian at p.
    L_xi Tg is ``lie_derivative_metric`` of the geodesic-flow field and Tg, each evaluated once on the
    stacked rows of p's stencil, bit for bit ``fd_lie_derivative_metric`` of the two fields.
    """
    jets = _stencil(m, p)
    j = hypersurface_pullback(m, p).jacobian
    lie = lie_derivative_metric(*jets.derivative(geodesic_flow_field_fn(m)), *jets.derivative(sasaki_metric_fn(m)))
    return float(np.abs(0.25 * (j.T @ lie @ j)).max())


def _sectional(m: ChartedMetric, data: ContactData, x: SBVec, y: SBVec, floor: float) -> float | None:
    """K(x, y) = g_cm(R-bar(x, y)y, x) / den for g_cm, den = g_cm(x, x) g_cm(y, y) - g_cm(x, y)^2,
    or None when the plane is degenerate to within |den| <= floor."""
    den = data.gcm(x, x) * data.gcm(y, y) - data.gcm(x, y) ** 2
    if abs(den) <= floor:
        return None
    return data.gcm(sb_curvature(m, data.at, x, y, y), x) / den


def xi_plane_curvature(m: ChartedMetric, p: SBPoint, a: SBVec) -> float:
    """Sectional curvature (for g_cm) of the plane spanned by xi and a."""
    data = contact_data_at(m, p)
    k = _sectional(m, data, data.xi, a, 1e-8)
    if k is None:
        raise DegeneratePlane("plane span(xi, a) is degenerate")
    return k


def k_contact_residual(
    m: ChartedMetric,
    points: list,
    rng: np.random.Generator,
    samples_per_point: int = 8,
) -> CheckReport:
    """Two K-contact residuals: Killing (FD Lie derivative of g_cm along the
    geodesic-flow field) and |K(xi, a) - eps| over nondegenerate planes."""
    _require_samples(len(points), "the number of points")
    if samples_per_point < 2:  # the pure horizontal and the pure tangential plane come first
        raise ValueError(f"samples_per_point must be >= 2, got {samples_per_point}")
    return CheckReport.build("k-contact", {}, fold(_k_contact_rows(m, points, rng, samples_per_point)))


def _k_contact_rows(m: ChartedMetric, points: list, rng: np.random.Generator, samples_per_point: int):
    planes = 0
    for p in points:
        yield "L_xi g_cm = 0 (Killing)", killing_residual(m, p), 1e-5
        eps = p.eps
        samples = []
        base = sample_ker_eta_vec(m, p, rng)
        samples.append(SBVec(p, base.hpart, np.zeros(m.dim)))  # pure horizontal
        samples.append(SBVec(p, np.zeros(m.dim), base.tpart))  # pure tangential
        for _ in range(samples_per_point - 2):
            samples.append(sample_ker_eta_vec(m, p, rng))
        data = contact_data_at(m, p)
        for a in samples:
            k = _sectional(m, data, data.xi, a, 1e-4)
            if k is None:
                continue
            yield "K(xi-plane) = eps", abs(k - eps), 1e-5
            planes += 1
    if not planes:  # a check that measured no plane has shown nothing, so it fails
        yield "K(xi-plane) = eps", math.inf, 1e-5


def phi_sectional(m: ChartedMetric, p: SBPoint, a: SBVec) -> float:
    """Sectional curvature (for g_cm) of span(a, phi a) for a in ker eta."""
    data = contact_data_at(m, p)
    _require_ker_eta(data, a)
    k = _sectional(m, data, a, data.phi(a), 1e-8)
    if k is None:
        raise DegeneratePlane("plane span(a, phi a) is degenerate")
    return k


def _require_ker_eta(data: ContactData, a: SBVec) -> None:
    """A phi-section span(a, phi a) is taken for a in ker eta only."""
    if abs(data.eta(a)) > 1e-10:
        raise DegeneratePlane("phi-sectional curvature needs a in ker(eta)")


def sasakian_residual(
    m: ChartedMetric,
    p: SBPoint,
    rng: np.random.Generator,
    num_samples: int = 12,
) -> CheckReport:
    """Residuals of both Sasakian characterizations.

    (i) N_phi(A, B) + 2 d eta(A, B) xi = 0, contracting ``nijenhuis_tensor``
        and ``d_eta_tensor``, each built once per point from one stacked
        evaluation of its field on p's one ``StencilJets``, with the lift
        fields at p;
    (ii) (nabla_a phi) b = g_cm(a, b) xi - eps eta(b) a via the closed forms.

    Draw order: the num_samples lift pairs of ``_lift_pairs``, X and Y of
    each pair in turn from one ``rng.normal`` call.  Both identities are one
    stacked contraction over the pairs (``contract`` with the two FD
    tensors and with ``PointGeometry.nabla_phi_parts``, whose one-row case
    is ``nabla_phi``); a check reports the largest residual of its rows.
    """
    _require_samples(num_samples, "num_samples")
    return CheckReport.build("sasakian", {}, fold(_sasakian_rows(m, p, rng, num_samples)))


def _sasakian_rows(m: ChartedMetric, p: SBPoint, rng: np.random.Generator, num_samples: int):
    data = contact_data_at(m, p)
    eps = p.eps
    jets = _stencil(m, p)
    nphi_t = _nijenhuis_on(m, eps, jets)
    deta_t = _d_eta_on(m, eps, jets)
    xi_ind = geodesic_flow_field_fn(m)(jets.z[0])

    a, b, a0, b0 = _lift_pairs(m, p, rng, num_samples)
    two_deta = contract(deta_t, a0, b0)
    yield "N_phi + 2 d eta @ xi = 0", np.abs(contract(nphi_t, a0, b0) + two_deta * xi_ind).max(), 1e-5

    lhs = contract(data.geo.nabla_phi_parts, a, b)
    rhs = data.gcm_rows(a, b)[:, None] * data.xi.comps() + (-eps * data.eta_rows(b))[:, None] * a
    yield "(nabla phi) = g_cm @ xi - eps eta @ id", np.abs(lhs - rhs).max(), 1e-5
