"""Independent finite-difference ground truth.

Everything in this module is built from raw metric components (plus the
chart's own analytic derivative callables when supplied) and never consumes
Christoffel or curvature values computed by the closed-form modules; the
chart keeps the oracle's own base jets (``base_jet``) for its latest base
points, so stencils that share a base point read the metric there once, and
a per-point stencil reads the jets it lacks in one stacked step.  The
fields that need only those jets are each one ``jet_field`` formula (Tg,
the geodesic flow field, the h- and t-lift fields, and the contact layer's
phi and eta); they and the v-lift take a stencil's stacked rows in one
call, and so does ``fd_riemann``'s Gamma.  It
certifies: the Koszul symbols, the coordinate curvature, the bracket
identities, the induced-hypersurface metric, and the sphere-bundle
connection/curvature via the Gauss equation in the induced chart of TM.
The Gauss side lives in one ``GaussOracle`` per bundle point, which keeps
R-bar and, on charts with analytic g' and g'', nabla-bar of the lifts of
constant base vectors as arrays in the (h, t) parts basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetric, NoSolvableCoordinate
from .manifold import ChartedMetric, _memo_get, _memo_put
from .sphere import SBPoint, SBVec, contract, require_same_sb_point
from .stencil import FD_STEP_FIRST, FD_STEP_GAMMA, FD_STEP_SECOND, jacobian, partials, points, quotient, rows
from .tangent import VectorField, _check_kinds, as_field, contract_lifts, field_at, kept_geometry


# -------------------- raw metric data (oracle's own access) --------------------


def _inv(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric("metric matrix is singular") from exc


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """t[..., l, j, k] = d_j g_lk + d_k g_jl - d_l g_jk, twice the first-kind symbols, for any stack of g'."""
    return np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg


def _koszul(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    return _koszul_inv(_inv(g), dg)


def _koszul_inv(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """The Koszul step from g^-1 and g', for any stack of them."""
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, _first_kind(dg))


def fd_christoffel(metric_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = FD_STEP_FIRST) -> np.ndarray:
    """Koszul symbols Gamma^i_jk from central differences of the raw metric components."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(metric_fn(x), dtype=float)
    return _koszul(g, partials(metric_fn, x, step))


def fd_riemann(gamma_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = FD_STEP_SECOND) -> np.ndarray:
    """Coordinate curvature ``r[i, a, b, c]``, ordered as ``riemann_at``, from central differences of Gamma.

    ``gamma_fn`` takes a stack of points (k, N) and returns their symbols
    (k, N, N, N), each row as it would return it for that point alone, as
    ``christoffel_at`` and ``sasaki_gamma_fn`` do.  It is called once, on
    the stack [x; ``points(x, step)``], so R equals
    ``_riemann(gamma_fn(x), partials(gamma_fn, x, step))`` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    gamma = np.asarray(gamma_fn(np.concatenate([x[None], points(x, step)])), dtype=float)
    return _riemann(gamma[0], quotient(gamma[1:], step))


def _riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R in operator order from Gamma and ``dgamma[c, i, a, b]`` = d_c Gamma^i_ab."""
    return (
        np.einsum("aibc->iabc", dgamma)
        - np.einsum("biac->iabc", dgamma)
        + np.einsum("iam,mbc->iabc", gamma, gamma)
        - np.einsum("ibm,mac->iabc", gamma, gamma)
    )


# -------------------- the raw base jet, kept by the chart --------------------

def _own(a) -> np.ndarray:
    """A read-only copy: a chart that reuses the buffer it returned cannot change a kept jet."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _dgamma(ginv: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """``dgamma[..., c, i, a, b]`` = d_c Gamma^i_ab from g^-1, g' and g'', for any stack of them."""
    dginv = -np.einsum("...im,...cmn,...nl->...cil", ginv, dg, ginv)
    dt = _first_kind(ddg)  # dt[c] = d_c t
    return 0.5 * (np.einsum("...cil,...lab->...ciab", dginv, _first_kind(dg)) + np.einsum("...il,...clab->...ciab", ginv, dt))


class BaseJet:
    """The oracle's raw data of the base chart at one x; every array is read-only.

    g and g' (``dg[c]`` = d_c g; analytic when supplied, else central
    differences), g^-1 (``ginv``) and Gamma, their Koszul step, are the
    read-only row k views of one ``_jet_arrays`` step, ``arrays``, which
    ``BaseJet(m, arrays, k)`` takes.  ``dgamma`` is built on first
    use, from that g^-1 and the g'' the chart held when the jet was built:
    only the stencils of Gamma-tilde and of the exact lift Jacobians need it.
    """

    def __init__(self, m: ChartedMetric, arrays: tuple, k: int):
        self.x, self.g, self.dg, self.ginv, self.gamma = (a[k] for a in arrays)
        self._deriv2_fn = m.deriv2_fn if m.deriv1_fn is not None else None

    @cached_property
    def dgamma(self) -> Optional[np.ndarray]:
        """``dgamma[c, i, a, b]`` = d_c Gamma^i_ab on charts with analytic g' and g''; None elsewhere."""
        if self._deriv2_fn is None:
            return None
        return _own(_dgamma(self.ginv, self.dg, np.asarray(self._deriv2_fn(self.x), dtype=float)))


def _read_jet(m: ChartedMetric, x: np.ndarray) -> tuple:
    """g and g' of the chart at x, as floats; g' by central differences when the chart has none."""
    g = np.asarray(m.metric_fn(x), dtype=float)
    return g, np.asarray(m.deriv1_fn(x) if m.deriv1_fn is not None else partials(m.metric_fn, x, FD_STEP_FIRST), dtype=float)


def _jet_arrays(m: ChartedMetric, xs) -> tuple:
    """(x, g, g', g^-1, Gamma) at the rows of xs (shape (k, n)), stacked and read-only.

    The one step every jet is built by: the chart is read once per row, g^-1
    is one ``_inv`` of the (k, n, n) stack and Gamma one Koszul step on it,
    so row k equals the one-row step at xs[k] bit for bit.
    """
    xs = np.array(xs, dtype=float)
    g, dg = (np.array(part) for part in zip(*(_read_jet(m, x) for x in xs)))
    ginv = _inv(g)
    arrays = (xs, g, dg, ginv, _koszul_inv(ginv, dg))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _read_jets(m: ChartedMetric, xs) -> list:
    """The jets at the rows of xs, all from one ``_jet_arrays`` step."""
    arrays = _jet_arrays(m, xs)
    return [BaseJet(m, arrays, k) for k in range(len(arrays[0]))]


def base_jet(m: ChartedMetric, x: np.ndarray) -> BaseJet:
    """The raw jet of ``m`` at x, kept by the chart for its ``_memo_size(m)`` latest base points.

    The memo dies with the chart.  An entry is keyed by the exact bytes of x
    and remembers the metric callables it was read from, so it is used only
    while the chart still holds those same callables.  A miss reads the one
    row x (``_read_jets``); ``read_jets`` fills the memo for several
    base points in one step beforehand.
    """
    x = np.asarray(x, dtype=float)
    key = x.tobytes()
    jet = _memo_get(m._oracle_jets, m, key)
    return _memo_put(m._oracle_jets, m, key, _read_jets(m, x[None])[0]) if jet is None else jet


def read_jets(m: ChartedMetric, xs) -> list:
    """The kept jets at the base points xs (shape (k, n)), in order.

    Those the memo lacks are read in one ``_read_jets`` step and kept, so
    the ``base_jet`` calls at xs that follow all hit the memo.
    """
    xs = np.asarray(xs, dtype=float)
    keys = [x.tobytes() for x in xs]
    jets = {}
    for key in keys:
        if key not in jets:
            jets[key] = _memo_get(m._oracle_jets, m, key)
    missing = {key: x for key, x in zip(keys, xs) if jets[key] is None}
    if missing:
        for key, jet in zip(missing, _read_jets(m, list(missing.values()))):
            jets[key] = _memo_put(m._oracle_jets, m, key, jet)
    return [jets[key] for key in keys]


@dataclass(frozen=True, eq=False)
class StencilJets:
    """The ``FD_STEP_FIRST`` stencil around z0 and the base jet of each row, stacked.

    ``z`` holds z0 and then ``points(z0, FD_STEP_FIRST)``: 4n + 1 rows.
    ``g[k]`` and ``gamma[k]`` are g and Gamma of the kept jet at row k's base
    point, so the 2n rows that move only u repeat x's.  A ``jet_field`` (or
    the v-lift) takes ``field(jets.z, jets)`` and returns its value at every
    row in one evaluation; ``derivative`` and ``field_jet`` difference it.
    ``GaussOracle.stencil`` keeps a bundle point's one.
    """

    z: np.ndarray
    g: np.ndarray
    gamma: np.ndarray

    @property
    def x(self) -> np.ndarray:
        """The base point of each row, as ``BaseJet.x`` holds its one."""
        return self.z[:, : self.g.shape[-1]]

    def derivative(self, field) -> tuple:
        """(F(z0), dF) with ``dF[k]`` = d_k F(z0): F once on the stacked rows, then ``quotient``.

        Each row equals ``field(row)`` bit for bit, so the pair equals
        (``field(z0)``, ``partials(field, z0, FD_STEP_FIRST)``).
        """
        values = field(self.z, self)
        return values[0], quotient(values[1:], FD_STEP_FIRST)

    def field_jet(self, field) -> tuple:
        """(F(z0), J) with J[i, j] = d_j F^i(z0), C-contiguous: the Jacobian form of ``derivative``,
        bit for bit the module's ``field_jet(field, z0)``, so ``jet_bracket`` and ``ambient_nabla`` take it."""
        value, dvalue = self.derivative(field)
        return value, np.ascontiguousarray(dvalue.T)


def read_stencil_jets(m: ChartedMetric, z0: np.ndarray) -> StencilJets:
    """The ``StencilJets`` of z0: the jets at x and at the 2n base points of the stencil, by ``read_jets``."""
    z0 = np.asarray(z0, dtype=float)
    zs = np.concatenate([z0[None], points(z0, FD_STEP_FIRST)])
    jets = read_jets(m, zs[:, : m.dim])
    return StencilJets(zs, np.array([jet.g for jet in jets]), np.array([jet.gamma for jet in jets]))


def base_gamma(m: ChartedMetric, x: np.ndarray) -> np.ndarray:
    """Oracle-side Koszul symbols of the base chart at x: the Gamma of ``base_jet(m, x)``."""
    return base_jet(m, x).gamma


def jet_field(m: ChartedMetric, body: Callable) -> Callable[..., np.ndarray]:
    """The field ``field(z, jets=None)`` = ``body(z, jet)`` of a formula that reads only the base jet at x.

    At one z = (x, u), ``jet`` is the kept ``base_jet(m, x)``; given a
    ``StencilJets``, z is its stacked rows and ``jet`` is ``jets``, whose x,
    g and Gamma hold row k's.  ``body`` broadcasts over the leading axes, so
    a row of the stack equals the one-z value bit for bit.
    """
    n = m.dim

    def field(z: np.ndarray, jets=None) -> np.ndarray:
        return body(z, base_jet(m, z[:n]) if jets is None else jets)

    return field


# -------------------- Sasaki metric in the induced chart of TM --------------------


def _sasaki_blocks(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[[g + C^T g C, C^T g], [g C, g]] for C^i_a = Gamma^i_ab u^b, for any stack of g and C."""
    n = g.shape[-1]
    gc, ct = g @ c, np.swapaxes(c, -1, -2)
    out = np.empty(g.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = g + ct @ gc
    out[..., :n, n:] = ct @ g
    out[..., n:, :n] = gc
    out[..., n:, n:] = g
    return out


def sasaki_metric_fn(m: ChartedMetric) -> Callable[..., np.ndarray]:
    """The ``jet_field`` z = (x, u) -> components of Tg in induced coordinates.

    With C^i_a = Gamma^i_ab u^b the blocks are [[g + C^T g C, C^T g], [g C, g]].
    """
    n = m.dim
    return jet_field(m, lambda z, jet: _sasaki_blocks(jet.g, np.einsum("...iab,...b->...ia", jet.gamma, z[..., n:])))


def _tg_gamma_tilde(z: np.ndarray, g, dg, gamma, dgamma) -> tuple:
    """(Tg, Gamma-tilde) at the rows of z = (x, u) whose base jets hold g, g', Gamma and d Gamma, for any stack of them.

    Tg is ``_sasaki_blocks(g, C)``; its z-derivative d_K Tg_IJ is built in
    closed form from the jet and u, and Gamma-tilde is one Koszul step on them.
    """
    n = z.shape[-1] // 2
    u = z[..., n:]
    c = np.einsum("...iab,...b->...ia", gamma, u)
    gc = g @ c
    dc_x = np.einsum("...kiab,...b->...kia", dgamma, u)  # d C / d x^k
    dc_u = np.einsum("...iak->...kia", gamma)  # d C / d u^k
    dtg = np.zeros(z.shape[:-1] + (2 * n,) * 3)
    # d_k (C^T g C) = dC_k^T g C + C^T dg_k C + (dC_k^T g C)^T, g symmetric
    dcgc = np.einsum("...kia,...ib->...kab", dc_x, gc)
    dtg[..., :n, :n, :n] = dg + dcgc + np.swapaxes(dcgc, -1, -2) + np.einsum("...ia,...kij,...jb->...kab", c, dg, c)
    xu = np.einsum("...kia,...ib->...kab", dc_x, g) + np.einsum("...ia,...kib->...kab", c, dg)
    dtg[..., :n, :n, n:] = xu
    dtg[..., :n, n:, :n] = np.swapaxes(xu, -1, -2)
    dtg[..., :n, n:, n:] = dg
    dcgc = np.einsum("...kia,...ib->...kab", dc_u, gc)
    dtg[..., n:, :n, :n] = dcgc + np.swapaxes(dcgc, -1, -2)
    xu = np.einsum("...kia,...ib->...kab", dc_u, g)
    dtg[..., n:, :n, n:] = xu
    dtg[..., n:, n:, :n] = np.swapaxes(xu, -1, -2)
    tg = _sasaki_blocks(g, c)
    return tg, _koszul(tg, dtg)


def _sasaki_at(m: ChartedMetric, z: np.ndarray) -> tuple:
    """(Tg, Gamma-tilde) at one z = (x, u).

    On charts with analytic g' and g'' both come from one ``_tg_gamma_tilde``
    step on the base jet at x; otherwise Gamma-tilde is the Koszul step on
    central differences of Tg, with Tg at z and its partials from one
    evaluation on the stacked rows of z's ``read_stencil_jets``, whose
    missing base jets are read in one step (``StencilJets.derivative``, bit
    for bit Tg(z) and ``partials`` of the one-z field).
    """
    z = np.asarray(z, dtype=float)
    if m.uses_fd_derivatives:
        tg, dtg = read_stencil_jets(m, z).derivative(sasaki_metric_fn(m))
        return tg, _koszul(tg, dtg)
    jet = base_jet(m, z[: m.dim])
    return _tg_gamma_tilde(z, jet.g, jet.dg, jet.gamma, jet.dgamma)


def sasaki_gamma_fn(m: ChartedMetric) -> Callable[[np.ndarray], np.ndarray]:
    """z -> Christoffel symbols of Tg, for z of shape (..., 2n) (one point or a stack of them), row by row (``_sasaki_at``)."""
    return lambda z: rows(lambda row: _sasaki_at(m, row)[1], np.asarray(z, dtype=float))


# -------------------- lift fields in induced coordinates --------------------


def lift_field_fn(m: ChartedMetric, field: VectorField, kind: str) -> Callable[..., np.ndarray]:
    """Induced-coordinate components of a lift field on TM.

    kinds: 'h' horizontal, 'v' vertical, 't' tangential (the extension
    X^v - eps g(X,u) N off the hypersurface needs eps: use
    ``sb_lift_field_fn``).  The h-lift is a ``jet_field``; the v-lift
    reads no jet and ignores ``jets``.  Both call the base field at each
    row's x (``rows``), so z may be the stacked rows of a ``StencilJets``.
    """
    n = m.dim
    fn = as_field(field)
    if kind == "h":
        return jet_field(m, lambda z, jet: _h_lift(jet.gamma, rows(fn, jet.x), z[..., n:]))
    if kind == "v":

        def vfield(z, jets=None):
            xs = rows(fn, z[..., :n])
            return np.concatenate([np.zeros(xs.shape), xs], axis=-1)

        return vfield
    raise ValueError(f"unknown lift kind {kind!r}")


def _h_lift(gamma: np.ndarray, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Induced components (X; -Gamma(X, u)) of X^h at (x, u), Gamma at x, row by row for any stack of Gamma, X and u.

    One einsum over the broadcast rows, so a row of a stack equals the one-row case bit for bit."""
    return np.concatenate([xs, -np.einsum("...iab,...a,...b->...i", gamma, xs, u)], axis=-1)


def _t_lift(g: np.ndarray, xs: np.ndarray, u: np.ndarray, eps: int) -> np.ndarray:
    """Induced components (0; X - eps g(X, u) u) of X^t at (x, u), g at x, row by row for any stack of g, X and u.

    g(X, u) is one ``np.vecmat`` and one ``np.vecdot`` per row, so a row of a stack equals the
    one-row case bit for bit.  For eps = +-1, x - eps y rounds as x -+ y."""
    return np.concatenate([np.zeros(xs.shape), xs - eps * (np.vecdot(np.vecmat(xs, g), u, keepdims=True) * u)], axis=-1)


def geodesic_flow_field_fn(m: ChartedMetric) -> Callable[..., np.ndarray]:
    """The ``jet_field`` of induced components of xi = 2 u^h = 2 u^i (d/dx^i)^h, twice the geodesic flow field."""
    n = m.dim
    return jet_field(m, lambda z, jet: 2.0 * _h_lift(jet.gamma, z[..., n:], z[..., n:]))


def sb_lift_field_fn(m: ChartedMetric, field: VectorField, kind: str, eps: int) -> Callable[..., np.ndarray]:
    """Induced components of a lift field on T_eps M: the h-lift of ``lift_field_fn`` (kind 'h') or the
    ``jet_field`` of the tangential lift X^v - eps g(X,u) N (kind 't'), calling the base field at each
    row's x (``rows``)."""
    if kind == "h":
        return lift_field_fn(m, field, "h")
    if kind == "t":
        fn = as_field(field)
        return jet_field(m, lambda z, jet: _t_lift(jet.g, rows(fn, jet.x), z[..., m.dim :], eps))
    raise ValueError(f"unknown sphere-bundle lift kind {kind!r}")


def _lift_jacobians(jet: BaseJet, u: np.ndarray, eps: int) -> np.ndarray:
    """``jac[b]``, the exact z-Jacobian at (x, u) of the lift field E_b: e_b^h for b < n, else e_{b-n}^t.

    The h-lift (w; -Gamma(w, u)) has d/dx = -d Gamma(w, u) and d/du = -Gamma(w, .);
    the t-lift (0; w - eps g(w, u) u) has d/dx = -eps u (w^T d g u)^T and
    d/du = -eps (u (g w)^T + g(w, u) I).  Needs the jet's d Gamma.
    """
    n = u.size
    jac = np.zeros((2 * n, 2 * n, 2 * n))
    jac[:n, n:, :n] = -np.transpose(jet.dgamma @ u, (2, 1, 0))  # [b, i, c] = -d_c Gamma^i_bk u^k
    jac[:n, n:, n:] = -np.transpose(jet.gamma, (1, 0, 2))  # [b, i, c] = -Gamma^i_bc
    u_col = u[None, :, None]
    jac[n:, n:, :n] = -eps * u_col * (jet.dg @ u).T[:, None, :]  # [b, i, c] = -eps u^i d_c g_bk u^k
    jac[n:, n:, n:] = -eps * (u_col * jet.g[:, None, :] + (jet.g @ u)[:, None, None] * np.eye(n))
    return jac


# -------------------- generic FD differential operators --------------------


def field_jet(field_fn, z: np.ndarray) -> tuple:
    """(A(z), dA(z)): a field's components at z and their central-difference Jacobian there.

    The generic reference: ``field_fn`` takes one point and is called once per
    stencil row.  ``StencilJets.field_jet`` gives the same pair bit for bit
    from one evaluation of a jet-only field on the stacked rows.
    """
    z = np.asarray(z, dtype=float)
    return np.asarray(field_fn(z), dtype=float), jacobian(field_fn, z, FD_STEP_FIRST)


def jet_bracket(a_jet: tuple, b_jet: tuple) -> np.ndarray:
    """[A, B]^i = A^j d_j B^i - B^j d_j A^i from the ``field_jet`` of A and of B at one z."""
    (aval, ajac), (bval, bjac) = a_jet, b_jet
    return bjac @ aval - ajac @ bval


def fd_lie_bracket(afield_fn, bfield_fn, z: np.ndarray) -> np.ndarray:
    """[A, B]^i = A^j d_j B^i - B^j d_j A^i by central differences."""
    return jet_bracket(field_jet(afield_fn, z), field_jet(bfield_fn, z))


def lie_derivative_metric(v: np.ndarray, dv: np.ndarray, g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """(L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k from V, g and their partials ``dv[k, i]`` = d_k V^i, ``dg[k]``."""
    jac = np.ascontiguousarray(dv.T)  # a transposed view would round the matrix products differently
    return np.einsum("k,kij->ij", v, dg) + jac.T @ g + g @ jac


def fd_lie_derivative_metric(vfield_fn, metric_fn, z: np.ndarray) -> np.ndarray:
    """``lie_derivative_metric`` of V and g from one stencil of each."""
    z = np.asarray(z, dtype=float)
    vval = np.asarray(vfield_fn(z), dtype=float)
    g = np.asarray(metric_fn(z), dtype=float)
    return lie_derivative_metric(vval, partials(vfield_fn, z, FD_STEP_FIRST), g, partials(metric_fn, z, FD_STEP_FIRST))


def exterior_derivative(domega: np.ndarray) -> np.ndarray:
    """(d omega)_ij = d_i omega_j - d_j omega_i (determinant convention) from ``domega[i, j]`` = d_i omega_j."""
    return domega - domega.T


def fd_exterior_derivative(omega_fn, z: np.ndarray) -> np.ndarray:
    """``exterior_derivative`` of a covector field from one stencil."""
    return exterior_derivative(partials(omega_fn, np.asarray(z, dtype=float), FD_STEP_FIRST))


def nijenhuis(phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """The Nijenhuis tensor ``N[i, j, k]`` = N^i_jk of an endomorphism field from its matrix and ``dphi[l]`` = d_l phi.

    N^i_jk = phi^l_j d_l phi^i_k - phi^l_k d_l phi^i_j - phi^i_l (d_j phi^l_k - d_k phi^l_j),
    so N^i_jk A^j B^k = phi^2 [A,B] + [phi A, phi B] - phi [phi A, B] - phi [A, phi B]
    for any vector fields A, B.
    """
    # s[i, j, k] = phi^l_j d_l phi^i_k - phi^i_l d_j phi^l_k; N is its (j, k) antisymmetrization
    s = np.einsum("lj,lik->ijk", phi, dphi) - np.einsum("il,jlk->ijk", phi, dphi)
    return s - np.swapaxes(s, 1, 2)


def fd_nijenhuis(phi_fn, z: np.ndarray) -> np.ndarray:
    """``nijenhuis`` of ``phi_fn(z)``, the matrix on induced components, from one stencil."""
    z = np.asarray(z, dtype=float)
    return nijenhuis(np.asarray(phi_fn(z), dtype=float), partials(phi_fn, z, FD_STEP_FIRST))


def ambient_nabla(aval: np.ndarray, b_jet: tuple, gamma: np.ndarray) -> np.ndarray:
    """(nabla_A B)^I = A^J d_J B^I + Gamma^I_JK A^J B^K at z, from A's value, B's jet and Gamma at z.

    ``b_jet`` = (B(z), dB(z)) is B's ``field_jet``, or its value with an exact Jacobian.
    """
    bval, bjac = b_jet
    return bjac @ aval + np.einsum("ijk,j,k->i", gamma, aval, bval)


# -------------------- hypersurface pullback of T_eps M --------------------


@dataclass(eq=False)
class HypersurfaceChart:
    """The chart of T_eps M at p whose coordinates are the induced ones but the solved u_j: its J and J^T Tg J at p.

    ``pullback_metric`` evaluates Tg at p on first use, so a caller that
    reads only the Jacobian evaluates no Tg.
    """

    solved_index: int
    keep: np.ndarray  # the induced coordinates that stay chart coordinates
    jacobian: np.ndarray  # dz/dw at p
    m: ChartedMetric
    z0: np.ndarray  # p's induced coordinates (x, u)

    @cached_property
    def pullback_metric(self) -> np.ndarray:
        """J^T Tg J at p."""
        return self.jacobian.T @ sasaki_metric_fn(self.m)(self.z0) @ self.jacobian

    def drop(self, z_vec: np.ndarray) -> np.ndarray:
        """Chart components of an ambient induced-coordinate vector tangent to the chart, or of each row of a stack."""
        return np.asarray(z_vec, dtype=float)[..., self.keep]


def hypersurface_pullback(m: ChartedMetric, p: SBPoint) -> HypersurfaceChart:
    """The chart of F = g_x(u, u) - eps = 0 at p that solves for the fiber coordinate u_j with the largest |dF/du_j|.

    J is exact by the implicit function theorem: the kept rows are the
    identity and row n + j is -dF[keep] / (dF/du_j), with dF/du = 2 g u and
    dF/dx_k = u^T (d_k g) u.
    """
    n = m.dim
    jet = base_jet(m, p.x)
    grad_u = 2.0 * (jet.g @ p.u)
    j = int(np.argmax(np.abs(grad_u)))
    if abs(grad_u[j]) < 1e-6:
        raise NoSolvableCoordinate("constraint gradient vanishes in every fiber direction")
    keep = np.delete(np.arange(2 * n), n + j)
    grad = np.concatenate([np.einsum("a,kab,b->k", p.u, jet.dg, p.u), grad_u])
    jac = np.zeros((2 * n, 2 * n - 1))
    jac[keep, np.arange(2 * n - 1)] = 1.0
    jac[n + j] = -grad[keep] / grad_u[j]
    return HypersurfaceChart(j, keep, jac, m, np.concatenate([p.x, p.u]))


# -------------------- Gauss-equation curvature oracle --------------------


def _embed_induced(m: ChartedMetric, v: SBVec) -> np.ndarray:
    """Induced coordinates of the ambient representative, oracle Gamma path: the one-row case of ``_embed_induced_rows``."""
    return _embed_induced_rows(m, v.at, v.comps())


def _embed_induced_rows(m: ChartedMetric, p: SBPoint, parts: np.ndarray) -> np.ndarray:
    """(X; W - Gamma(X, u)) for the (h, t) parts (X, W) at p, one vector or a stack of rows: one
    ``np.matvec`` per row with E of ``gauss_oracle(m, p)._parts_maps``, so a row equals the one-row case bit for bit."""
    return np.matvec(gauss_oracle(m, p)._parts_maps[2], parts)


class GaussOracle:
    """The oracle's context at one bundle point p.

    Tg(z0), Gamma-tilde(z0) (``tg0``, ``gamma0``), the Weingarten matrix W,
    the second fundamental form's matrix, the ambient curvature R-tilde of
    Tg, the induced curvature R-bar and the induced connection nabla-bar of
    the basis lift fields depend only on p, so each is built once, on first
    use.  Tg and Gamma-tilde at z0 come from one ``_tg_gamma_tilde`` step:
    row 0 of R-tilde's stencil step when R-tilde is built first, else one
    ``_sasaki_at``.  The context also holds p's one ``stencil``, which every
    FD tensor at p that needs only base jets is differenced on: the contact
    layer's d eta, N_phi and L_xi Tg, and nabla-tilde Phi here.
    ``curvature_rows``, ``second_fundamental_form_rows``, ``nabla_endomorphism``
    and ``sb_nabla_via_ambient`` only contract them with the sampled (h, t)
    parts.  ``gauss_oracle`` keeps one context per (chart, point) on the
    point, and ``gauss_curvature_oracle``, ``sb_nabla_via_ambient`` and the
    contact tensors read that one.
    Everything is built from the base jet at x and Gamma-tilde, never from
    the closed forms.  The context holds p's x, u and eps but never p
    itself; its methods take rows of parts, and the per-vector entry points
    check the vectors' point.
    """

    def __init__(self, m: ChartedMetric, p: SBPoint):
        self.m = m
        self.x, self.u, self.eps = p.x, p.u, p.eps
        self.z0 = np.concatenate([p.x, p.u])
        self.n_ind = np.concatenate([np.zeros(m.dim), p.u])

    @cached_property
    def stencil(self) -> StencilJets:
        """The ``StencilJets`` of z0 (``read_stencil_jets``), the one stencil of p's jet-only FD tensors."""
        return read_stencil_jets(self.m, self.z0)

    @cached_property
    def _at_z0(self) -> tuple:
        """(Tg, Gamma-tilde) at z0 by one ``_sasaki_at``, unless ``r_tilde`` has taken them from its stack."""
        return _sasaki_at(self.m, self.z0)

    @property
    def tg0(self) -> np.ndarray:
        return self._at_z0[0]

    @property
    def gamma0(self) -> np.ndarray:
        return self._at_z0[1]

    @cached_property
    def r_tilde(self) -> np.ndarray:
        """R-tilde of Tg at z0 from one Gamma-tilde evaluation on the whole central-difference stencil.

        On charts with analytic g' and g'' one ``_tg_gamma_tilde`` step takes
        z0 and its 4n stencil rows.  g, g', g^-1 and Gamma at x and at the 2n
        x-rows come from one ``_jet_arrays`` step and d Gamma from one step on
        the same stack, and the 2n u-rows sit on the jet at x.  The jet at x
        enters the memo when the memo lacks it, and no x-row's does; row 0 gives ``tg0`` and
        ``gamma0`` when they are not built yet.  Elsewhere ``sasaki_gamma_fn`` takes the
        stencil, with the coarser second-derivative step, as Gamma itself
        carries finite-difference noise there.
        """
        m, n = self.m, self.m.dim
        if m.uses_fd_derivatives:
            gamma = sasaki_gamma_fn(m)(points(self.z0, FD_STEP_SECOND))
            return _riemann(self.gamma0, quotient(gamma, FD_STEP_SECOND))
        zs = np.concatenate([self.z0[None], points(self.z0, FD_STEP_GAMMA)])
        read = np.r_[0, 1 : n + 1, 2 * n + 1 : 3 * n + 1]  # z0, then the rows z0 +- step e_k with k < n, which move x
        arrays = _jet_arrays(m, zs[read, :n])
        xs, g, dg, ginv, gamma = arrays
        dgamma = _dgamma(ginv, dg, rows(m.deriv2_fn, xs))
        dgamma.flags.writeable = False
        key = self.x.tobytes()
        if _memo_get(m._oracle_jets, m, key) is None:
            jet = BaseJet(m, arrays, 0)
            jet.dgamma = dgamma[0]
            _memo_put(m._oracle_jets, m, key, jet)
        stacks = []
        for at_rows in (g, dg, gamma, dgamma):
            full = np.empty((4 * n + 1,) + at_rows.shape[1:])
            full[:] = at_rows[0]  # the u-rows sit at x
            full[read] = at_rows
            stacks.append(full)
        tg, gamma_tilde = _tg_gamma_tilde(zs, *stacks)
        vars(self).setdefault("_at_z0", (tg[0].copy(), gamma_tilde[0].copy()))
        return _riemann(self.gamma0, quotient(gamma_tilde[1:], FD_STEP_GAMMA))

    @cached_property
    def w(self) -> np.ndarray:
        """The Weingarten matrix: ``w[:, a]`` = nabla-tilde_{e_a} N = dN(e_a) + Gamma-tilde(e_a, N), N = (0; u)."""
        n = self.m.dim
        w = np.einsum("ijk,k->ij", self.gamma0, self.n_ind)
        w[n:, n:] += np.eye(n)
        return _own(w)

    @cached_property
    def ii(self) -> np.ndarray:
        """The second fundamental form's matrix -eps Tg W: ``ii[c, a]`` = II(e_a, e_c) in induced components."""
        return _own(-self.eps * self.tg0 @ self.w)

    @cached_property
    def _parts_maps(self) -> tuple:
        """(C, P, E, F) at p from the oracle's base jet at x: C^i_a = Gamma^i_ab u^b, P = I - eps u (g u)^T,
        E = [[I, 0], [-C, I]], which maps (h, t) parts to induced components (``_embed_induced``), and
        F = [[I, 0], [P C, P]], which maps induced components to (h, t) parts, its t part made
        u-orthogonal, and so drops an N part."""
        n = self.m.dim
        jet = base_jet(self.m, self.x)
        c = np.einsum("iab,b->ia", jet.gamma, self.u)
        proj = np.eye(n) - self.eps * np.outer(self.u, jet.g @ self.u)
        e = np.eye(2 * n)
        e[n:, :n] = -c
        f = np.eye(2 * n)
        f[n:, :n], f[n:, n:] = proj @ c, proj
        return c, proj, _own(e), _own(f)

    @cached_property
    def rbar(self) -> np.ndarray:
        """R-bar in the (h, t) parts basis: ``rbar[o, a, b, c]`` is the o-part of R-bar(e_a, e_b)e_c.

        In induced components R-bar(A, B)C = R-tilde(A, B)C - II(B, C) W A + II(A, C) W B,
        with the Weingarten matrix W (``w``) and II(A, B) = B^T ``ii`` A.  Each slot
        is pulled back from parts by E = [[I, 0], [-C, I]] (``_embed_induced``) and the output
        is mapped to parts by F (``_parts_maps``).
        """
        r_tilde = self.r_tilde  # before W and II: a cold R-tilde step also yields the Gamma-tilde(z0) they read
        w, ii = self.w, self.ii
        rind = r_tilde - np.einsum("ia,cb->iabc", w, ii) + np.einsum("ib,ca->iabc", w, ii)
        _, _, e, f = self._parts_maps
        rb = np.einsum("oi,iabc->oabc", f, rind) @ e
        rb = np.einsum("oajc,jb->oabc", rb, e)
        return _own(np.einsum("ojbc,ja->oabc", rb, e))

    @cached_property
    def nabla(self) -> Optional[np.ndarray]:
        """nabla-bar of constant-vector lift fields in the (h, t) parts basis; None on charts without analytic g', g''.

        ``nabla[o, a, b]`` is the o-part of nabla-bar_{E_a} E_b for the lift fields
        E_a = e_a^h (a < n) and E_a = e_{a-n}^t (a >= n).  By the Gauss formula it is
        F (dE_b(E_a) + Gamma-tilde(E_a, E_b)) at z0, from the values V = [[I, 0], [-C, P]]
        of the E_a at z0, their exact Jacobians (``_lift_jacobians``), Gamma-tilde
        (``gamma0``) and F (``_parts_maps``), which drops the N part that tan removes.
        """
        jet = base_jet(self.m, self.x)
        if jet.dgamma is None:
            return None
        n = self.m.dim
        c, proj, _, f = self._parts_maps
        v = np.eye(2 * n)
        v[n:, :n], v[n:, n:] = -c, proj
        amb = np.transpose(_lift_jacobians(jet, self.u, self.eps) @ v, (1, 2, 0))  # [i, a, b] = dE_b(E_a)^i
        amb += np.einsum("ijk,ja->iak", self.gamma0, v) @ v
        return _own(np.einsum("oi,iab->oab", f, amb))

    def second_fundamental_form_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """II(A, B) = -eps Tg(B, nabla-tilde_A N), the Weingarten relation, for (h, t) parts a and b,
        vectors or stacks of rows: ``ii`` contracted with the induced components E a and E b (E of
        ``_parts_maps``) as (E b) ``ii`` (E a), one ``np.matvec``, ``np.vecmat`` or ``np.vecdot`` per
        step, so a row equals the one-vector case bit for bit."""
        e = self._parts_maps[2]
        return np.vecdot(np.vecmat(np.matvec(e, b), self.ii), np.matvec(e, a))

    def curvature_rows(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """R-bar(a, b)c for (h, t) parts, vectors or stacks of rows: ``contract`` of ``rbar``, as
        ``sb_curvature`` contracts its own, so a row equals the one-row case bit for bit."""
        return contract(self.rbar, a, b, c)

    def nabla_endomorphism(self, phi_fn) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """(a, b) -> the parts of (nabla-bar_a phi) b for an endomorphism field of induced components on TM,
        a and b (h, t) parts, vectors or stacks of rows.

        (nabla-tilde Phi)^I_LK = d_L Phi^I_K + Gamma-tilde^I_LM Phi^M_K - Phi^I_M Gamma-tilde^M_LK
        (``_nabla_tilde_endomorphism``) from one evaluation of ``phi_fn`` on
        the context's ``stencil``, so ``phi_fn`` must take
        ``phi_fn(jets.z, jets)``, as the contact layer's phi matrix field
        does.  When Phi N = 0 and Phi maps into T(T_eps M) at p,
        (nabla-bar_A phi)B = tan((nabla-tilde_A Phi)B); F drops the N part
        that tan removes.  The returned function contracts nabla-tilde Phi with
        the induced components E a and E b and maps the result to parts by F
        (E and F of ``_parts_maps``): F ((nabla-tilde Phi E b) E a), one
        ``np.matvec`` per step, so a row equals the one-vector case bit for bit.
        """
        phi, dphi = self.stencil.derivative(phi_fn)
        nabla = _nabla_tilde_endomorphism(phi, dphi, self.gamma0)
        _, _, e, f = self._parts_maps

        def rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.matvec(f, np.matvec(np.matvec(nabla, np.matvec(e, b)[..., None, :]), np.matvec(e, a)))

        return rows


def _nabla_tilde_endomorphism(phi: np.ndarray, dphi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``nabla[i, l, k]`` = (nabla_L Phi)^I_K = d_L Phi^I_K + Gamma^I_LM Phi^M_K - Phi^I_M Gamma^M_LK from
    Phi, ``dphi[l]`` = d_L Phi and the Christoffel symbols Gamma."""
    return np.einsum("lik->ilk", dphi) + np.einsum("ilm,mk->ilk", gamma, phi) - np.einsum("im,mlk->ilk", phi, gamma)


def gauss_oracle(m: ChartedMetric, p: SBPoint) -> GaussOracle:
    """The one ``GaussOracle`` of chart ``m`` at p, kept by p; R-tilde is built on first use."""
    return kept_geometry(m, p, GaussOracle)


def gauss_curvature_oracle(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec, c: SBVec) -> SBVec:
    """R-bar(a, b)c by the Gauss equation, the one-row case of ``curvature_rows`` of ``gauss_oracle(m, p)``.

    tan(R-tilde(A,B)C) - II(B,C) nabla-tilde_A N + II(A,C) nabla-tilde_B N,
    where tan(V) = V - eps Tg(V, N) N; F drops that N part, so tan is not
    taken separately.
    """
    require_same_sb_point(p, a, b, c)
    return SBVec.of(p, gauss_oracle(m, p).curvature_rows(a.comps(), b.comps(), c.comps()))


def sb_nabla_via_ambient(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    p: SBPoint,
) -> SBVec:
    """The tangential part of the ambient derivative of lift fields, nabla-bar_A B.

    Only A's value at p enters.  When B is the lift of a constant base vector
    (any yfield that is not callable) on a chart with analytic g' and g'',
    the context ``gauss_oracle(m, p)`` holds the answer for every pair of
    basis lifts (``GaussOracle.nabla``), and the call is the one-row case of
    ``sb_nabla_via_ambient_rows``.  Otherwise the ambient derivative is taken
    in induced coordinates, the Jacobian of B's components central-differenced
    from one evaluation of B's lift field on the context's ``stencil``, against
    the context's Christoffels of Tg at p, and F of ``_parts_maps`` maps it to
    parts, dropping its N part.
    """
    _check_kinds(kind_x, kind_y, allowed=("h", "t"))
    ctx = gauss_oracle(m, p)
    nabla = None if callable(yfield) else ctx.nabla
    if nabla is not None:
        return SBVec.of(p, contract_lifts(nabla, field_at(xfield, p.x), np.asarray(yfield, dtype=float), kind_x == "h", kind_y == "h"))
    aval = sb_lift_field_fn(m, xfield, kind_x, p.eps)(ctx.z0)
    b_jet = ctx.stencil.field_jet(sb_lift_field_fn(m, yfield, kind_y, p.eps))
    return SBVec.of(p, np.matvec(ctx._parts_maps[3], ambient_nabla(aval, b_jet, ctx.gamma0)))


def sb_nabla_via_ambient_rows(m: ChartedMetric, p: SBPoint, x: np.ndarray, y: np.ndarray, x_h, y_h) -> np.ndarray:
    """``sb_nabla_via_ambient`` for the lifts A of constant base vectors x and B of y, stacks of rows
    (k, n) with kinds ``x_h``, ``y_h`` (true for 'h') as in ``sphere.sb_nabla_rows``.

    With ``GaussOracle.nabla`` (charts with analytic g' and g'') it is one
    ``contract_lifts`` over all rows and kind pairs, and a row equals the
    one-row call bit for bit; elsewhere each row takes the stencil path of
    ``sb_nabla_via_ambient``.
    """
    nabla = gauss_oracle(m, p).nabla
    if nabla is not None:
        return contract_lifts(nabla, x, y, x_h, y_h)
    kind = {True: "h", False: "t"}
    return np.array([sb_nabla_via_ambient(m, xk, yk, kind[bool(a)], kind[bool(b)], p).comps() for xk, yk, a, b in zip(x, y, x_h, y_h)])
