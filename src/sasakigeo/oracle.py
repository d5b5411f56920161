"""Independent finite-difference ground truth.

Everything in this module is built from raw metric components (plus the
chart's own analytic derivative callables when supplied) and never consumes
Christoffel or curvature values computed by the closed-form modules; the
chart keeps the oracle's own base jets (``base_jet``) for its latest base
points, so stencils that share a base point read the metric there once.  It
certifies: the Koszul symbols, the coordinate curvature, the bracket
identities, the induced-hypersurface metric, and the sphere-bundle
connection/curvature via the Gauss equation in the induced chart of TM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetric, NoSolvableCoordinate
from .manifold import ChartedMetric, Christoffel, RiemannTensor
from .sphere import SBPoint, SBVec, require_same_sb_point
from .stencil import FD_STEP_FIRST, FD_STEP_SECOND, jacobian, partials
from .tangent import VectorField, as_field


# -------------------- raw metric data (oracle's own access) --------------------


def _inv(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric("metric matrix is singular") from exc


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """t[l, j, k] = d_j g_lk + d_k g_jl - d_l g_jk, twice the first-kind symbols."""
    return np.einsum("jlk->ljk", dg) + np.einsum("kjl->ljk", dg) - dg


def _koszul(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("il,ljk->ijk", _inv(g), _first_kind(dg))


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


# -------------------- the raw base jet, kept by the chart --------------------

JET_MEMO_SIZE = 16  # base points a chart keeps jets for; one stencil at x reads 2n + 1 of them


def _own(a) -> np.ndarray:
    """A read-only copy: a chart that reuses the buffer it returned cannot change a kept jet."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class BaseJet:
    """The oracle's raw data of the base chart at one x; every array is read-only.

    g and g' (``dg[c]`` = d_c g; analytic when supplied, else central
    differences) are read from the chart when the jet is built, and Gamma is
    their Koszul step.  ``dgamma`` is built on first use, from the g'' the
    chart held when the jet was built: only the stencils of Gamma-tilde and
    of the exact lift Jacobians need it.
    """

    def __init__(self, m: ChartedMetric, x: np.ndarray):
        self.x = _own(x)
        self._deriv2_fn = m.deriv2_fn if m.deriv1_fn is not None else None
        self.g = _own(m.metric_fn(x))
        self.dg = _own(m.deriv1_fn(x) if m.deriv1_fn is not None else partials(m.metric_fn, x, FD_STEP_FIRST))
        self.gamma = _own(_koszul(self.g, self.dg))

    @cached_property
    def dgamma(self) -> Optional[np.ndarray]:
        """``dgamma[c, i, a, b]`` = d_c Gamma^i_ab on charts with analytic g' and g''; None elsewhere."""
        if self._deriv2_fn is None:
            return None
        ginv, t = _inv(self.g), _first_kind(self.dg)
        ddg = np.asarray(self._deriv2_fn(self.x), dtype=float)
        dginv = -np.einsum("im,cmn,nl->cil", ginv, self.dg, ginv)
        dt = np.array([_first_kind(ddg_c) for ddg_c in ddg])  # dt[c] = d_c t
        return _own(0.5 * (np.einsum("cil,lab->ciab", dginv, t) + np.einsum("il,clab->ciab", ginv, dt)))


def base_jet(m: ChartedMetric, x: np.ndarray) -> BaseJet:
    """The raw jet of ``m`` at x, kept by the chart for its ``JET_MEMO_SIZE`` latest base points.

    The memo dies with the chart.  An entry is keyed by the exact bytes of x
    and remembers the metric callables it was read from, so it is used only
    while the chart still holds those same callables.
    """
    x = np.asarray(x, dtype=float)
    fns = (m.metric_fn, m.deriv1_fn, m.deriv2_fn)
    memo = m._oracle_jets
    key = x.tobytes()
    entry = memo.pop(key, None)
    if entry is None or any(a is not b for a, b in zip(entry[0], fns)):
        entry = (fns, BaseJet(m, x))
        if len(memo) >= JET_MEMO_SIZE:
            del memo[next(iter(memo))]  # the least recently used
    memo[key] = entry
    return entry[1]


def base_gamma(m: ChartedMetric, x: np.ndarray) -> np.ndarray:
    """Oracle-side Koszul symbols of the base chart at x: the Gamma of ``base_jet(m, x)``."""
    return base_jet(m, x).gamma


# -------------------- Sasaki metric in the induced chart of TM --------------------


def _sasaki_blocks(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[[g + C^T g C, C^T g], [g C, g]] for C^i_a = Gamma^i_ab u^b."""
    n = g.shape[0]
    gc = g @ c
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = g + c.T @ gc
    out[:n, n:] = c.T @ g
    out[n:, :n] = gc
    out[n:, n:] = g
    return out


def sasaki_metric_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray]:
    """z = (x, u) -> components of Tg in induced coordinates.

    With C^i_a = Gamma^i_ab u^b the blocks are
    [[g + C^T g C, C^T g], [g C, g]].
    """
    n = m.dim

    def tg(z: np.ndarray) -> np.ndarray:
        jet = base_jet(m, z[:n])
        return _sasaki_blocks(jet.g, np.einsum("iab,b->ia", jet.gamma, z[n:]))

    return tg


def sasaki_gamma_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray]:
    """z -> Christoffel symbols of Tg.

    On charts with analytic g' and g'' each z takes g, g', Gamma and d Gamma
    from the base jet at x, builds Tg and its z-derivative d_K Tg_IJ in closed
    form, and takes one Koszul step; otherwise Tg is central-differenced.
    """
    tg = sasaki_metric_fn(m)
    if m.deriv1_fn is None or m.deriv2_fn is None:
        return lambda z: fd_christoffel(tg, z).gamma
    n = m.dim

    def gamma_tilde(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x, u = z[:n], z[n:]
        jet = base_jet(m, x)
        g, dg, gamma, dgamma = jet.g, jet.dg, jet.gamma, jet.dgamma
        c = np.einsum("iab,b->ia", gamma, u)
        gc = g @ c
        dc_x = np.einsum("kiab,b->kia", dgamma, u)  # d C / d x^k
        dc_u = np.einsum("iak->kia", gamma)  # d C / d u^k
        dtg = np.zeros((2 * n, 2 * n, 2 * n))
        # d_k (C^T g C) = dC_k^T g C + C^T dg_k C + (dC_k^T g C)^T, g symmetric
        dcgc = np.einsum("kia,ib->kab", dc_x, gc)
        dtg[:n, :n, :n] = dg + dcgc + np.swapaxes(dcgc, 1, 2) + np.einsum("ia,kij,jb->kab", c, dg, c)
        xu = np.einsum("kia,ib->kab", dc_x, g) + np.einsum("ia,kib->kab", c, dg)
        dtg[:n, :n, n:] = xu
        dtg[:n, n:, :n] = np.swapaxes(xu, 1, 2)
        dtg[:n, n:, n:] = dg
        dcgc = np.einsum("kia,ib->kab", dc_u, gc)
        dtg[n:, :n, :n] = dcgc + np.swapaxes(dcgc, 1, 2)
        xu = np.einsum("kia,ib->kab", dc_u, g)
        dtg[n:, :n, n:] = xu
        dtg[n:, n:, :n] = np.swapaxes(xu, 1, 2)
        return _koszul(_sasaki_blocks(g, c), dtg)

    return gamma_tilde


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
        xval = np.asarray(fn(x), dtype=float)
        return np.concatenate([np.zeros(n), xval - eps * float(xval @ base_jet(m, x).g @ u) * u])

    return tfield


def geodesic_flow_field_fn(m: ChartedMetric, scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Induced components of scale * u^i (d/dx^i)^h."""
    n = m.dim

    def flow(z):
        x, u = z[:n], z[n:]
        return scale * np.concatenate([u, -np.einsum("iab,a,b->i", base_gamma(m, x), u, u)])

    return flow


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
        jet = base_jet(m, x)
        out = np.zeros((2 * n, 2 * n))
        if kind == "h":
            out[n:, :n] = -np.einsum("ciab,a,b->ic", jet.dgamma, w, u)
            out[n:, n:] = -np.einsum("iac,a->ic", jet.gamma, w)
        else:
            s = float(w @ jet.g @ u)
            ds_dx = np.einsum("a,cab,b->c", w, jet.dg, u)
            gw = jet.g @ w
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


def fd_nijenhuis(phi_fn, z: np.ndarray, step: float = FD_STEP_FIRST) -> np.ndarray:
    """The Nijenhuis tensor ``N[i, j, k]`` = N^i_jk of an endomorphism field.

    N^i_jk = phi^l_j d_l phi^i_k - phi^l_k d_l phi^i_j - phi^i_l (d_j phi^l_k - d_k phi^l_j)
    from one stencil of ``phi_fn(z)``, the matrix on induced components;
    N^i_jk A^j B^k = phi^2 [A,B] + [phi A, phi B] - phi [phi A, B] - phi [A, phi B]
    for any vector fields A, B.
    """
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi_fn(z), dtype=float)
    dphi = partials(phi_fn, z, step)  # dphi[l, i, k] = d_l phi^i_k
    # s[i, j, k] = phi^l_j d_l phi^i_k - phi^i_l d_j phi^l_k; N is its (j, k) antisymmetrization
    s = np.einsum("lj,lik->ijk", phi, dphi) - np.einsum("il,jlk->ijk", phi, dphi)
    return s - np.swapaxes(s, 1, 2)


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

    def __post_init__(self):
        # the induced coordinates that stay chart coordinates
        self.keep = np.delete(np.arange(2 * self.m.dim), self.m.dim + self.solved_index)

    def drop(self, z_vec: np.ndarray) -> np.ndarray:
        """Chart components of an ambient induced-coordinate vector tangent to the chart."""
        return np.asarray(z_vec, dtype=float)[self.keep]

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
    rest = np.delete(np.arange(n), j)
    rest_block = np.ix_(rest, rest)
    branch = [1.0]  # root-branch sign, fixed below from the center point

    def param_fn(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        x = w[:n]
        uhat = w[n:]
        g = np.asarray(m.metric_fn(x), dtype=float)
        a = g[j, j]
        b = 2.0 * float(g[j, rest] @ uhat)
        dcoef = float(uhat @ g[rest_block] @ uhat) - eps
        if abs(a) < 1e-12:
            t = -dcoef / b
        else:
            disc = b * b - 4.0 * a * dcoef
            t = (-b + branch[0] * np.sqrt(max(disc, 0.0))) / (2.0 * a)
        u = np.empty(n)
        u[rest] = uhat
        u[j] = t
        return np.concatenate([x, u])

    w0 = np.concatenate([p.x, p.u[rest]])
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
    """The SBVec of induced components, its vertical part made u-orthogonal from raw g."""
    n = m.dim
    hpart = w[:n]
    jet = base_jet(m, p.x)
    vpart = w[n:] + np.einsum("iab,a,b->i", jet.gamma, hpart, p.u)
    return SBVec(p, hpart, vpart - p.eps * float(vpart @ jet.g @ p.u) * p.u)


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


def second_fundamental_form(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec) -> float:
    """II(A, B) = eps * Tg(nabla-tilde_A B, N); see ``GaussOracle`` to reuse one point."""
    return GaussOracle(m, p).second_fundamental_form(a, b)


class GaussOracle:
    """The Gauss-equation oracle for R-bar at one bundle point p.

    The ambient curvature R-tilde of Tg, Gamma-tilde(z0), Tg(z0) and the
    normal N depend only on p, so they are built once here; ``curvature``,
    ``second_fundamental_form`` and ``weingarten`` only contract them with
    the sampled vectors.
    """

    def __init__(self, m: ChartedMetric, p: SBPoint):
        self.m, self.p = m, p
        self.z0 = np.concatenate([p.x, p.u])
        gamma_tilde_fn = sasaki_gamma_fn(m)
        self.gamma0 = gamma_tilde_fn(self.z0)
        self.tg0 = sasaki_metric_fn(m)(self.z0)
        self.n_ind = np.concatenate([np.zeros(m.dim), p.u])
        # differentiating an analytically-evaluated Gamma is a first-derivative
        # problem; the coarser second-derivative step is only needed when Gamma
        # itself carries finite-difference noise
        step = FD_STEP_SECOND if m.uses_fd_derivatives else 5e-6
        self.r_tilde = fd_riemann(gamma_tilde_fn, self.z0, step).r

    def second_fundamental_form(self, a: SBVec, b: SBVec) -> float:
        """II(A, B) = eps * Tg(nabla-tilde_A B, N)."""
        require_same_sb_point(self.p, a, b)
        nab = ambient_nabla(
            _const_sb_field_fn(self.m, a),
            _const_sb_field_fn(self.m, b),
            self.z0,
            lambda z: self.gamma0,
            b_jac_fn=_const_sb_field_jac(self.m, b),
        )
        return self.p.eps * float(nab @ self.tg0 @ self.n_ind)

    def weingarten(self, a: SBVec) -> np.ndarray:
        """Induced components of nabla-tilde_A N = dN(A) + Gamma-tilde(A, N), N = (0; u)."""
        n = self.m.dim
        aval = _const_sb_field_fn(self.m, a)(self.z0)
        dn = np.concatenate([np.zeros(n), aval[n:]])
        return dn + np.einsum("ijk,j,k->i", self.gamma0, aval, self.n_ind)

    def curvature(self, a: SBVec, b: SBVec, c: SBVec) -> SBVec:
        """R-bar(a, b)c from the ambient curvature of Tg plus second-fundamental terms.

        tan(R-tilde(A,B)C) - II(B,C) nabla-tilde_A N + II(A,C) nabla-tilde_B N,
        where tan(V) = V - eps Tg(V, N) N.
        """
        m, p, n_ind = self.m, self.p, self.n_ind
        a_ind = _embed_induced(m, a)
        b_ind = _embed_induced(m, b)
        c_ind = _embed_induced(m, c)
        v = np.einsum("ijkl,j,k,l->i", self.r_tilde, c_ind, a_ind, b_ind)
        v_tan = v - p.eps * float(v @ self.tg0 @ n_ind) * n_ind
        ii_bc = self.second_fundamental_form(b, c)
        ii_ac = self.second_fundamental_form(a, c)
        result = v_tan - ii_bc * self.weingarten(a) + ii_ac * self.weingarten(b)
        return _from_induced(m, p, result)

    def nabla_endomorphism(self, phi_fn) -> Callable[[SBVec, SBVec], SBVec]:
        """(a, b) -> (nabla-bar_a phi) b for an endomorphism field of induced components on TM.

        (nabla-tilde Phi)^I_LK = d_L Phi^I_K + Gamma-tilde^I_LM Phi^M_K - Phi^I_M Gamma-tilde^M_LK
        from one stencil of ``phi_fn`` at z0.  When Phi N = 0 and Phi maps
        into T(T_eps M) at p, (nabla-bar_A phi)B = tan((nabla-tilde_A Phi)B);
        ``_from_induced`` drops the N part that tan removes.
        """
        phi, gam = np.asarray(phi_fn(self.z0), dtype=float), self.gamma0
        dphi = partials(phi_fn, self.z0, FD_STEP_FIRST)  # dphi[l, i, k] = d_l Phi^i_k
        nabla = np.einsum("lik->ilk", dphi) + np.einsum("ilm,mk->ilk", gam, phi) - np.einsum("im,mlk->ilk", phi, gam)

        def apply(a: SBVec, b: SBVec) -> SBVec:
            require_same_sb_point(self.p, a, b)
            v = (nabla @ _embed_induced(self.m, b)) @ _embed_induced(self.m, a)
            return _from_induced(self.m, self.p, v)

        return apply


def gauss_curvature_oracle(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec, c: SBVec) -> SBVec:
    """R-bar(a, b)c by the Gauss equation; see ``GaussOracle`` to reuse one point."""
    return GaussOracle(m, p).curvature(a, b, c)


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
