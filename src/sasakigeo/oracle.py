"""Independent finite-difference ground truth.

Everything in this module is built from raw metric components (plus the
chart's own analytic derivative callables when supplied) and never consumes
Christoffel or curvature values computed by the closed-form modules.  It
certifies: the Koszul symbols, the coordinate curvature, the bracket
identities, the induced-hypersurface metric, and the sphere-bundle
connection/curvature via the Gauss equation in the induced chart of TM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMetric, NoSolvableCoordinate
from .manifold import ChartedMetric, Christoffel, RiemannTensor
from .sphere import SBPoint, SBVec, require_same_sb_point, sb_vec
from .stencil import FD_STEP_FIRST, FD_STEP_SECOND, jacobian, partials
from .tangent import VectorField, as_field


# -------------------- raw metric data (oracle's own access) --------------------


def _koszul(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric("metric matrix is singular") from exc
    t = np.einsum("jlk->ljk", dg) + np.einsum("kjl->ljk", dg) - dg
    return 0.5 * np.einsum("il,ljk->ijk", ginv, t)


def fd_christoffel(metric_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = FD_STEP_FIRST) -> Christoffel:
    """Koszul symbols from central differences of the raw metric components."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(metric_fn(x), dtype=float)
    return Christoffel(_koszul(g, partials(metric_fn, x, step)))


def fd_riemann(gamma_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = FD_STEP_SECOND) -> RiemannTensor:
    """Coordinate curvature from central differences of a Christoffel function."""
    x = np.asarray(x, dtype=float)
    gamma = np.asarray(gamma_fn(x), dtype=float)
    dgamma = partials(gamma_fn, x, step)
    r = (
        np.einsum("kilj->ijkl", dgamma)
        - np.einsum("likj->ijkl", dgamma)
        + np.einsum("ikm,mlj->ijkl", gamma, gamma)
        - np.einsum("ilm,mkj->ijkl", gamma, gamma)
    )
    return RiemannTensor(r)


def base_gamma(m: ChartedMetric, x: np.ndarray) -> np.ndarray:
    """Oracle-side Koszul symbols of the base chart (analytic dg when supplied)."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(m.metric_fn(x), dtype=float)
    if m.deriv1_fn is not None:
        dg = np.asarray(m.deriv1_fn(x), dtype=float)
    else:
        dg = partials(m.metric_fn, x, FD_STEP_FIRST)
    return _koszul(g, dg)


def _base_dgamma(m: ChartedMetric, x: np.ndarray) -> np.ndarray:
    """d_c Gamma^i_ab, oracle-side; callers make sure g' and g'' are analytic."""
    g = np.asarray(m.metric_fn(x), dtype=float)
    dg = np.asarray(m.deriv1_fn(x), dtype=float)
    ddg = np.asarray(m.deriv2_fn(x), dtype=float)
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("im,cmn,nl->cil", ginv, dg, ginv)
    t = np.einsum("jlk->ljk", dg) + np.einsum("kjl->ljk", dg) - dg
    dt = (
        np.einsum("calb->clab", ddg)
        + np.einsum("cbal->clab", ddg)
        - np.einsum("clab->clab", ddg)
    )
    return 0.5 * (
        np.einsum("cil,lab->ciab", dginv, t) + np.einsum("il,clab->ciab", ginv, dt)
    )


# -------------------- Sasaki metric in the induced chart of TM --------------------


def sasaki_metric_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray]:
    """z = (x, u) -> components of Tg in induced coordinates.

    With C^i_a = Gamma^i_ab u^b the blocks are
    [[g + C^T g C, C^T g], [g C, g]].
    """
    n = m.dim

    def tg(z: np.ndarray) -> np.ndarray:
        x, u = z[:n], z[n:]
        g = np.asarray(m.metric_fn(x), dtype=float)
        c = np.einsum("iab,b->ia", base_gamma(m, x), u)
        gc = g @ c
        out = np.empty((2 * n, 2 * n))
        out[:n, :n] = g + c.T @ gc
        out[:n, n:] = c.T @ g
        out[n:, :n] = gc
        out[n:, n:] = g
        return out

    return tg


def sasaki_metric_deriv_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray] | None:
    """Analytic d_K Tg_IJ when the base chart has analytic g', g''; else None."""
    if m.deriv1_fn is None or m.deriv2_fn is None:
        return None
    n = m.dim

    def dtg(z: np.ndarray) -> np.ndarray:
        x, u = z[:n], z[n:]
        g = np.asarray(m.metric_fn(x), dtype=float)
        dg = np.asarray(m.deriv1_fn(x), dtype=float)
        gamma = base_gamma(m, x)
        dgamma = _base_dgamma(m, x)
        c = np.einsum("iab,b->ia", gamma, u)
        dc_x = np.einsum("ciab,b->cia", dgamma, u)  # d C / d x^c
        dc_u = np.einsum("iac->cia", gamma)  # d C / d u^c
        out = np.zeros((2 * n, 2 * n, 2 * n))
        for k in range(n):
            dgk = dg[k]
            dck = dc_x[k]
            xx = dgk + dck.T @ g @ c + c.T @ dgk @ c + c.T @ g @ dck
            xu = dck.T @ g + c.T @ dgk
            out[k, :n, :n] = xx
            out[k, :n, n:] = xu
            out[k, n:, :n] = xu.T
            out[k, n:, n:] = dgk
        for k in range(n):
            dck = dc_u[k]
            xx = dck.T @ g @ c + c.T @ g @ dck
            xu = dck.T @ g
            out[n + k, :n, :n] = xx
            out[n + k, :n, n:] = xu
            out[n + k, n:, :n] = xu.T
        return out

    return dtg


def sasaki_gamma_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray]:
    """z -> Christoffel symbols of Tg; Koszul from analytic dTg when available."""
    tg = sasaki_metric_fn(m)
    dtg = sasaki_metric_deriv_fn(m)
    if dtg is None:
        return lambda z: fd_christoffel(tg, z).gamma
    return lambda z: _koszul(tg(z), dtg(z))


# -------------------- lift fields in induced coordinates --------------------


def lift_field_fn(m: ChartedMetric, field: VectorField, kind: str) -> Callable[[np.ndarray], np.ndarray]:
    """Induced-coordinate components of a lift field on TM.

    kinds: 'h' horizontal, 'v' vertical, 't' tangential (the extension
    X^v - eps g(X,u) N off the hypersurface needs eps: use
    ``tangential_field_fn``).
    """
    n = m.dim
    fn = as_field(field)
    if kind == "h":

        def hfield(z):
            x, u = z[:n], z[n:]
            xval = np.asarray(fn(x), dtype=float)
            return np.concatenate([xval, -np.einsum("iab,a,b->i", base_gamma(m, x), xval, u)])

        return hfield
    if kind == "v":

        def vfield(z):
            return np.concatenate([np.zeros(n), np.asarray(fn(z[:n]), dtype=float)])

        return vfield
    raise ValueError(f"unknown lift kind {kind!r}")


def tangential_field_fn(m: ChartedMetric, field: VectorField, eps: int) -> Callable[[np.ndarray], np.ndarray]:
    """Induced components of the tangential-lift field X^v - eps g(X,u) N."""
    n = m.dim
    fn = as_field(field)

    def tfield(z):
        x, u = z[:n], z[n:]
        g = np.asarray(m.metric_fn(x), dtype=float)
        xval = np.asarray(fn(x), dtype=float)
        return np.concatenate([np.zeros(n), xval - eps * float(xval @ g @ u) * u])

    return tfield


def geodesic_flow_field_fn(m: ChartedMetric, scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Induced components of scale * u^i (d/dx^i)^h."""
    n = m.dim

    def flow(z):
        x, u = z[:n], z[n:]
        return scale * np.concatenate([u, -np.einsum("iab,a,b->i", base_gamma(m, x), u, u)])

    return flow


def normal_field_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray]:
    n = m.dim
    return lambda z: np.concatenate([np.zeros(n), z[n:]])


def sb_lift_field_fn(m: ChartedMetric, field: VectorField, kind: str, eps: int) -> Callable[[np.ndarray], np.ndarray]:
    if kind == "h":
        return lift_field_fn(m, field, "h")
    if kind == "t":
        return tangential_field_fn(m, field, eps)
    raise ValueError(f"unknown sphere-bundle lift kind {kind!r}")


def const_lift_jacobian_fn(m: ChartedMetric, w: np.ndarray, kind: str, eps: int):
    """Exact z-Jacobian of the lift field of a constant base vector.

    Available when the chart carries analytic metric derivatives; returns
    None otherwise (callers then fall back to finite differences).
    """
    if m.deriv1_fn is None or m.deriv2_fn is None:
        return None
    n = m.dim
    w = np.asarray(w, dtype=float)

    def jac(z: np.ndarray) -> np.ndarray:
        x, u = z[:n], z[n:]
        out = np.zeros((2 * n, 2 * n))
        if kind == "h":
            gamma = base_gamma(m, x)
            dgamma = _base_dgamma(m, x)
            out[n:, :n] = -np.einsum("ciab,a,b->ic", dgamma, w, u)
            out[n:, n:] = -np.einsum("iac,a->ic", gamma, w)
        else:
            g = np.asarray(m.metric_fn(x), dtype=float)
            dg = np.asarray(m.deriv1_fn(x), dtype=float)
            s = float(w @ g @ u)
            ds_dx = np.einsum("a,cab,b->c", w, dg, u)
            gw = g @ w
            out[n:, :n] = -eps * np.outer(u, ds_dx)
            out[n:, n:] = -eps * (np.outer(u, gw) + s * np.eye(n))
        return out

    return jac


# -------------------- generic FD differential operators --------------------


def fd_lie_bracket(afield_fn, bfield_fn, z: np.ndarray, step: float = FD_STEP_FIRST) -> np.ndarray:
    """[A, B]^i = A^j d_j B^i - B^j d_j A^i by central differences."""
    z = np.asarray(z, dtype=float)
    aval = np.asarray(afield_fn(z), dtype=float)
    bval = np.asarray(bfield_fn(z), dtype=float)
    return jacobian(bfield_fn, z, step) @ aval - jacobian(afield_fn, z, step) @ bval


def fd_lie_derivative_metric(vfield_fn, metric_fn, z: np.ndarray, step: float = FD_STEP_FIRST) -> np.ndarray:
    """(L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k."""
    z = np.asarray(z, dtype=float)
    d = z.size
    vval = np.asarray(vfield_fn(z), dtype=float)
    g = np.asarray(metric_fn(z), dtype=float)
    dgdir = np.zeros((d, d))
    jac = jacobian(vfield_fn, z, step)
    # kept as V^k * (g(z + h e_k) - g(z - h e_k)) / 2h, in this order: contracting
    # ``partials`` with V divides before it multiplies, which rounds differently
    # and moves the k-contact Killing residuals in their last bits
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        dgdir += vval[k] * (np.asarray(metric_fn(z + e)) - np.asarray(metric_fn(z - e))) / (2.0 * step)
    return dgdir + jac.T @ g + g @ jac


def fd_exterior_derivative(omega_fn, z: np.ndarray, step: float = FD_STEP_FIRST) -> np.ndarray:
    """(d omega)_ij = d_i omega_j - d_j omega_i (determinant convention)."""
    z = np.asarray(z, dtype=float)
    jac = jacobian(omega_fn, z, step)  # jac[j, i] = d_i omega_j
    return jac.T - jac


def fd_nijenhuis(phi_fn, afield_fn, bfield_fn, z: np.ndarray, step: float = FD_STEP_FIRST) -> np.ndarray:
    """N_phi(A,B) = phi^2 [A,B] + [phi A, phi B] - phi [phi A, B] - phi [A, phi B].

    ``phi_fn(z)`` is the endomorphism matrix on induced components.
    """
    z = np.asarray(z, dtype=float)
    phi0 = np.asarray(phi_fn(z), dtype=float)

    def phi_a(w):
        return np.asarray(phi_fn(w)) @ np.asarray(afield_fn(w))

    def phi_b(w):
        return np.asarray(phi_fn(w)) @ np.asarray(bfield_fn(w))

    term1 = phi0 @ (phi0 @ fd_lie_bracket(afield_fn, bfield_fn, z, step))
    term2 = fd_lie_bracket(phi_a, phi_b, z, step)
    term3 = phi0 @ fd_lie_bracket(phi_a, bfield_fn, z, step)
    term4 = phi0 @ fd_lie_bracket(afield_fn, phi_b, z, step)
    return term1 + term2 - term3 - term4


def ambient_nabla(
    afield_fn, bfield_fn, z: np.ndarray, gamma_fn, step: float = FD_STEP_FIRST, b_jac_fn=None
) -> np.ndarray:
    """(nabla_A B)^I = A^J d_J B^I + Gamma^I_JK A^J B^K on any chart.

    The component derivative d_J B^I is central-differenced unless an exact
    Jacobian function is supplied.
    """
    z = np.asarray(z, dtype=float)
    aval = np.asarray(afield_fn(z), dtype=float)
    bval = np.asarray(bfield_fn(z), dtype=float)
    jac = jacobian(bfield_fn, z, step) if b_jac_fn is None else np.asarray(b_jac_fn(z))
    return jac @ aval + np.einsum("ijk,j,k->i", np.asarray(gamma_fn(z)), aval, bval)


# -------------------- hypersurface pullback of T_eps M --------------------


@dataclass
class HypersurfaceChart:
    """Local (2n-1)-coordinate chart of T_eps M solved from g_x(u, u) = eps."""

    m: ChartedMetric
    p: SBPoint
    solved_index: int
    param_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]
    center: np.ndarray  # chart coordinates of p

    def drop(self, z_vec: np.ndarray) -> np.ndarray:
        """Chart components of an ambient induced-coordinate vector tangent to the chart."""
        n = self.m.dim
        keep = [i for i in range(2 * n) if i != n + self.solved_index]
        return np.asarray(z_vec, dtype=float)[keep]

    def pullback_metric_fn(self, scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
        tg = sasaki_metric_fn(self.m)

        def gbar(w):
            j = self.jacobian_fn(w)
            return scale * (j.T @ tg(self.param_fn(w)) @ j)

        return gbar


def hypersurface_pullback(m: ChartedMetric, p: SBPoint) -> HypersurfaceChart:
    """Solve the fiber constraint for the coordinate with the largest gradient."""
    n = m.dim
    g0 = np.asarray(m.metric_fn(p.x), dtype=float)
    grad = 2.0 * (g0 @ p.u)
    j = int(np.argmax(np.abs(grad)))
    if abs(grad[j]) < 1e-6:
        raise NoSolvableCoordinate("constraint gradient vanishes in every fiber direction")
    eps = float(p.eps)
    uj0 = p.u[j]
    branch = [1.0]  # root-branch sign, fixed below from the center point

    def param_fn(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        x = w[:n]
        uhat = w[n:]
        g = np.asarray(m.metric_fn(x), dtype=float)
        rest = np.delete(np.arange(n), j)
        a = g[j, j]
        b = 2.0 * float(g[j, rest] @ uhat)
        dcoef = float(uhat @ g[np.ix_(rest, rest)] @ uhat) - eps
        if abs(a) < 1e-12:
            t = -dcoef / b
        else:
            disc = b * b - 4.0 * a * dcoef
            t = (-b + branch[0] * np.sqrt(max(disc, 0.0))) / (2.0 * a)
        u = np.empty(n)
        u[rest] = uhat
        u[j] = t
        return np.concatenate([x, u])

    w0 = np.concatenate([p.x, np.delete(p.u, j)])
    for sign in (1.0, -1.0):
        branch[0] = sign
        if abs(param_fn(w0)[n + j] - uj0) < 1e-8:
            break
    else:
        raise NoSolvableCoordinate("neither quadratic branch reproduces the base fiber point")

    def jacobian_fn(w: np.ndarray) -> np.ndarray:
        return jacobian(param_fn, w, FD_STEP_FIRST)

    return HypersurfaceChart(m, p, j, param_fn, jacobian_fn, w0)


# -------------------- Gauss-equation curvature oracle --------------------


def _embed_induced(m: ChartedMetric, v: SBVec) -> np.ndarray:
    """Induced coordinates of the ambient representative, oracle Gamma path."""
    x, u = v.at.x, v.at.u
    du = v.tpart - np.einsum("iab,a,b->i", base_gamma(m, x), v.hpart, u)
    return np.concatenate([v.hpart, du])


def _from_induced(m: ChartedMetric, p: SBPoint, w: np.ndarray) -> SBVec:
    n = m.dim
    hpart = w[:n]
    vpart = w[n:] + np.einsum("iab,a,b->i", base_gamma(m, p.x), hpart, p.u)
    return sb_vec(m, p, hpart, vpart)


def _const_sb_field_fn(m: ChartedMetric, v: SBVec) -> Callable[[np.ndarray], np.ndarray]:
    """Extension of an SBVec by constant-base-vector lift fields."""
    hf = lift_field_fn(m, v.hpart.copy(), "h")
    tf = tangential_field_fn(m, v.tpart.copy(), v.at.eps)
    return lambda z: hf(z) + tf(z)


def _const_sb_field_jac(m: ChartedMetric, v: SBVec):
    """Exact Jacobian of the constant-vector extension, when available."""
    jh = const_lift_jacobian_fn(m, v.hpart, "h", v.at.eps)
    jt = const_lift_jacobian_fn(m, v.tpart, "t", v.at.eps)
    if jh is None or jt is None:
        return None
    return lambda z: jh(z) + jt(z)


def weingarten(m: ChartedMetric, p: SBPoint, a: SBVec, gamma_tilde_fn=None) -> np.ndarray:
    """Induced components of nabla-tilde_A N (tangential, shape-operator image)."""
    if gamma_tilde_fn is None:
        gamma_tilde_fn = sasaki_gamma_fn(m)
    n = m.dim
    z0 = np.concatenate([p.x, p.u])
    a_fn = _const_sb_field_fn(m, a)
    n_jac = np.zeros((2 * n, 2 * n))
    n_jac[n:, n:] = np.eye(n)
    return ambient_nabla(a_fn, normal_field_fn(m), z0, gamma_tilde_fn, b_jac_fn=lambda z: n_jac)


def second_fundamental_form(
    m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec, gamma_tilde_fn=None, tg0=None
) -> float:
    """II(A, B) = eps * Tg(nabla-tilde_A B, N)."""
    require_same_sb_point(a, b)
    if gamma_tilde_fn is None:
        gamma_tilde_fn = sasaki_gamma_fn(m)
    z0 = np.concatenate([p.x, p.u])
    if tg0 is None:
        tg0 = sasaki_metric_fn(m)(z0)
    nab = ambient_nabla(
        _const_sb_field_fn(m, a),
        _const_sb_field_fn(m, b),
        z0,
        gamma_tilde_fn,
        b_jac_fn=_const_sb_field_jac(m, b),
    )
    n_ind = np.concatenate([np.zeros(m.dim), p.u])
    return p.eps * float(nab @ tg0 @ n_ind)


def gauss_curvature_oracle(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec, c: SBVec) -> SBVec:
    """R-bar(a, b)c from the ambient curvature of Tg plus second-fundamental terms.

    tan(R-tilde(A,B)C) - II(B,C) nabla-tilde_A N + II(A,C) nabla-tilde_B N,
    where tan(V) = V - eps Tg(V, N) N.
    """
    n = m.dim
    z0 = np.concatenate([p.x, p.u])
    gamma_tilde_fn = sasaki_gamma_fn(m)
    tg0 = sasaki_metric_fn(m)(z0)
    n_ind = np.concatenate([np.zeros(n), p.u])

    # differentiating an analytically-evaluated Gamma is a first-derivative
    # problem; the coarser second-derivative step is only needed when Gamma
    # itself carries finite-difference noise
    step = FD_STEP_SECOND if m.uses_fd_derivatives else 5e-6
    r_tilde = fd_riemann(gamma_tilde_fn, z0, step).r
    a_ind = _embed_induced(m, a)
    b_ind = _embed_induced(m, b)
    c_ind = _embed_induced(m, c)
    v = np.einsum("ijkl,j,k,l->i", r_tilde, c_ind, a_ind, b_ind)
    v_tan = v - p.eps * float(v @ tg0 @ n_ind) * n_ind

    ii_bc = second_fundamental_form(m, p, b, c, gamma_tilde_fn, tg0)
    ii_ac = second_fundamental_form(m, p, a, c, gamma_tilde_fn, tg0)
    w_a = weingarten(m, p, a, gamma_tilde_fn)
    w_b = weingarten(m, p, b, gamma_tilde_fn)
    result = v_tan - ii_bc * w_a + ii_ac * w_b
    return _from_induced(m, p, result)


def sb_nabla_via_ambient(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    p: SBPoint,
) -> SBVec:
    """Project the ambient derivative of lift fields onto T_eps M.

    nabla-bar_A B = nabla-tilde_A B - eps Tg(nabla-tilde_A B, N) N, with the
    ambient derivative taken in induced coordinates against the oracle's own
    Christoffels of Tg.  For constant base vectors on charts with analytic
    derivatives the component Jacobian is exact; otherwise it is
    central-differenced.
    """
    from .manifold import TangentVec

    z0 = np.concatenate([p.x, p.u])
    gamma_tilde_fn = sasaki_gamma_fn(m)
    a_fn = sb_lift_field_fn(m, xfield, kind_x, p.eps)
    b_fn = sb_lift_field_fn(m, yfield, kind_y, p.eps)
    b_jac_fn = None
    if isinstance(yfield, TangentVec):
        b_jac_fn = const_lift_jacobian_fn(m, yfield.comps, kind_y, p.eps)
    elif not callable(yfield):
        b_jac_fn = const_lift_jacobian_fn(m, np.asarray(yfield, dtype=float), kind_y, p.eps)
    nab = ambient_nabla(a_fn, b_fn, z0, gamma_tilde_fn, b_jac_fn=b_jac_fn)
    tg0 = sasaki_metric_fn(m)(z0)
    n_ind = np.concatenate([np.zeros(m.dim), p.u])
    nab_tan = nab - p.eps * float(nab @ tg0 @ n_ind) * n_ind
    return _from_induced(m, p, nab_tan)
