"""Base pseudo-Riemannian manifold in a single chart.

A manifold (M, g) is presented by a ``ChartedMetric``: a callable returning
the symmetric component matrix g_ij at a point, optional analytic first and
second partial derivatives, and a domain predicate.  Everything downstream
(Levi-Civita connection, curvature, sectional curvature, space forms) is
computed from these raw ingredients.  Each callable takes one point; one
declared by ``stencil.takes_stacks`` (the space form's are) also takes a
stack, rows equal to its one-point calls.  An undeclared one is read per row.

Index conventions
-----------------
Gamma and R are plain arrays (read-only where a geometry context shares
them), and R has one index order across the library, the operator order:

* ``christoffel_at(m, x)[i, j, k]`` is Gamma^i_jk, symmetric in (j, k).
* ``riemann_at(m, x)[i, a, b, c]`` is the i-component of R(e_a, e_b) e_c
  for R(X, Y) = [nabla_X, nabla_Y] - nabla_[X,Y], so R(X, Y)Z is
  ``np.einsum("iabc,a,b,c->i", r, x, y, z)``; ``nabla_riemann_full`` puts
  the m of nabla_m R in front.
* ``deriv1_fn(x)[k, i, j]`` is d_k g_ij; ``deriv2_fn(x)[k, l, i, j]`` is
  d_k d_l g_ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateMetric, DegeneratePlane, OutOfDomain, SpaceFormMismatch
from .stencil import FD_STEP_FIRST, FD_STEP_SECOND, jacobian, partials, points, quotient, rows, stacked, takes_stacks

Point = np.ndarray
SPACE_FORM_PLANES = 2  # tangent planes per point that ``validate_space_form`` measures


@dataclass(frozen=True)
class SpaceFormSpec:
    """Constant-sectional-curvature model parameters."""

    dim: int
    index: int
    curvature: float


@dataclass
class ChartedMetric:
    """A pseudo-metric manifold presented in one coordinate chart.

    ``metric_fn`` must return a symmetric, nondegenerate n x n matrix with
    exactly ``index`` negative eigenvalues everywhere on the domain.  When
    the analytic derivative callables are absent, central finite differences
    (steps 1e-5 / 1e-4) are used and ``uses_fd_derivatives`` is True.
    Each callable takes one point; a declared one (``stencil.takes_stacks``)
    also takes a stack (..., n), its rows equal to its one-point calls bit
    for bit.  An undeclared replacement is read row by row.

    The chart and the points keep closed-form contexts built from it
    (``base_context``, ``oracle.base_jet``, ``tangent.kept_geometry``).
    Reassigning ``metric_fn``, ``deriv1_fn`` or ``deriv2_fn`` in place drops
    every one of them: each is built again on its next use.  No other field
    may be reassigned.
    """

    dim: int
    index: int
    metric_fn: Callable[[Point], np.ndarray]
    deriv1_fn: Optional[Callable[[Point], np.ndarray]] = None
    deriv2_fn: Optional[Callable[[Point], np.ndarray]] = None
    domain_fn: Callable[[Point], bool] = field(default=lambda x: True)
    locally_symmetric: bool = False
    name: str = ""
    # recent base points' closed-form contexts (``base_context``) and oracle jets (``oracle.base_jet``)
    _base_points: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _oracle_jets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def uses_fd_derivatives(self) -> bool:
        return self.deriv1_fn is None or self.deriv2_fn is None

    def require_in_domain(self, x: Point) -> None:
        if not self.domain_fn(np.asarray(x, dtype=float)):
            raise OutOfDomain(f"point {x} outside domain of chart {self.name!r}")


def metric_at(m: ChartedMetric, x: Point) -> np.ndarray:
    """g_ij at x or at each row of a stack x (..., n), each row's domain, shape, finiteness and symmetry checked.

    A declared ``metric_fn`` reads a stack at once; an undeclared one, or a stack with a row
    that fails a check or is not exactly symmetric, is read row by row (the first failing row's error).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        flat = x.reshape(-1, x.shape[-1])
        if stacked(m.metric_fn) and rows(m.domain_fn, flat).all():
            g = np.asarray(m.metric_fn(flat), dtype=float)
            if g.shape == (len(flat), m.dim, m.dim) and np.isfinite(g).all() and (g == np.swapaxes(g, 1, 2)).all():
                return g.reshape(x.shape[:-1] + g.shape[1:])
        return rows(lambda y: metric_at(m, y), x)
    m.require_in_domain(x)
    g = np.asarray(m.metric_fn(x), dtype=float)
    if g.shape != (m.dim, m.dim):
        raise DegenerateMetric(f"metric has shape {g.shape}, expected {(m.dim, m.dim)}")
    if not np.isfinite(g).all():
        raise DegenerateMetric("metric matrix has non-finite entries")
    # exact symmetry is the common case
    if not (g == g.T).all() and not np.allclose(g, g.T, atol=1e-14 * max(1.0, np.abs(g).max())):
        raise DegenerateMetric("metric matrix is not symmetric")
    return g


def metric_deriv1_at(m: ChartedMetric, x: Point) -> np.ndarray:
    """d_k g_ij at x or at each row of a stack x: analytic when supplied, else central differences."""
    x = np.asarray(x, dtype=float)
    if m.deriv1_fn is not None:
        return rows(m.deriv1_fn, x)
    return rows(lambda y: partials(m.metric_fn, y, FD_STEP_FIRST), x)


def metric_inverse(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric("metric matrix is singular") from exc


def _levi_civita(m: ChartedMetric, x: Point, g: Optional[np.ndarray] = None) -> tuple:
    """(g, g', g^-1, T, Gamma) at x of shape (..., n): g and g' read as stacks, one inversion of the stack.

    ``T[..., l, j, k]`` = d_j g_lk + d_k g_jl - d_l g_jk is twice the first-kind
    symbols.  A g already read at x by ``metric_at`` may be passed in.
    """
    if g is None:
        g = metric_at(m, x)
    dg = metric_deriv1_at(m, x)
    ginv = metric_inverse(g)
    t = np.einsum("...jlk->...ljk", dg) + np.einsum("...kjl->...ljk", dg) - dg
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, t)
    return g, dg, ginv, t, 0.5 * (gamma + np.swapaxes(gamma, -1, -2))  # enforce exact lower symmetry


def christoffel_at(m: ChartedMetric, x: Point) -> np.ndarray:
    """Levi-Civita symbols Gamma^i_jk from the Koszul formula."""
    return _levi_civita(m, np.asarray(x, dtype=float))[-1]


class CurvaturePass(NamedTuple):
    """What one ``_curvature_pass`` built at x of shape (..., n), jet and algebra alike.

    g'' (``ddg``), d g^-1 and d T are None on a chart without analytic
    derivatives; ``dgamma[..., c, i, a, b]`` is d_c Gamma^i_ab.
    """

    g: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    dg: np.ndarray
    ginv: np.ndarray
    t: np.ndarray
    dgamma: np.ndarray
    ddg: Optional[np.ndarray]
    dginv: Optional[np.ndarray]
    dt: Optional[np.ndarray]


def _first_kind_derivative(ddg: np.ndarray) -> np.ndarray:
    """``out[..., c, l, a, b]`` = d_c T_lab = d_c (d_a g_lb + d_b g_al - d_l g_ab) from g'' (``ddg[..., c, k, i, j]``)."""
    return (
        np.einsum("...calb->...clab", ddg)
        + np.einsum("...cbal->...clab", ddg)
        - np.einsum("...clab->...clab", ddg)
    )


def _curvature_pass(m: ChartedMetric, x: Point, g: Optional[np.ndarray] = None) -> CurvaturePass:
    """The ``CurvaturePass`` (g, Gamma, R and the jet behind them) at x of shape (..., n), over the stack at once.

    Each chart callable is read by ``stencil.rows``; g is inverted once for the
    whole stack and the Koszul step, d Gamma and R are one step on it.  A g
    already read at x by ``metric_at`` may be passed in.  d_c Gamma^i_ab
    comes from the analytic g'' when the chart has one, else from central
    differences of ``christoffel_at``, row by row.
    """
    g, dg, ginv, t, gamma = _levi_civita(m, x, g)
    ddg = dginv = dt = None
    if m.uses_fd_derivatives:
        dgamma = rows(lambda y: partials(lambda w: christoffel_at(m, w), y, FD_STEP_SECOND), x)
    else:
        ddg = rows(m.deriv2_fn, x)
        dginv = -np.einsum("...im,...cmn,...nl->...cil", ginv, dg, ginv)
        dt = _first_kind_derivative(ddg)
        dgamma = 0.5 * (
            np.einsum("...cil,...lab->...ciab", dginv, t) + np.einsum("...il,...clab->...ciab", ginv, dt)
        )
    r = (
        np.einsum("...aibc->...iabc", dgamma)
        - np.einsum("...biac->...iabc", dgamma)
        + np.einsum("...iam,...mbc->...iabc", gamma, gamma)
        - np.einsum("...ibm,...mac->...iabc", gamma, gamma)
    )
    return CurvaturePass(g, gamma, r, dg, ginv, t, dgamma, ddg, dginv, dt)


def riemann_at(m: ChartedMetric, x: Point) -> np.ndarray:
    """``r[i, a, b, c]`` = d_a Gamma^i_bc - d_b Gamma^i_ac + Gamma^i_am Gamma^m_bc - Gamma^i_bm Gamma^m_ac."""
    return _curvature_pass(m, np.asarray(x, dtype=float)).r


JET_MEMO_SIZE = 16  # the fewest base points a chart keeps in each memo; one stencil at x reads 2n + 1 of them


def _memo_size(m: ChartedMetric) -> int:
    """Base points m keeps in each memo: ``JET_MEMO_SIZE``, or one whole stencil's 2n + 1 when that is more (n >= 8)."""
    return max(JET_MEMO_SIZE, 2 * m.dim + 1)


def _memo_get(memo: dict, m: ChartedMetric, key: bytes):
    """memo's value under key, made the most recently used; None if absent or kept from callables m no longer holds."""
    entry = memo.pop(key, None)
    if entry is None:
        return None
    metric_fn, deriv1_fn, deriv2_fn = entry[0]
    if metric_fn is not m.metric_fn or deriv1_fn is not m.deriv1_fn or deriv2_fn is not m.deriv2_fn:
        return None
    memo[key] = entry
    return entry[1]


def _memo_put(memo: dict, m: ChartedMetric, key: bytes, value):
    """Keep value under key with m's metric callables, dropping the least recently used entry when ``memo`` is full."""
    if len(memo) >= _memo_size(m):
        del memo[next(iter(memo))]
    memo[key] = ((m.metric_fn, m.deriv1_fn, m.deriv2_fn), value)
    return value


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view: a shared context array cannot be written through, and
    the array a chart returned (possibly its own constant) stays writable."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


class BaseContext:
    """The closed-form g, Gamma, R and nabla R of one chart at one base point x (see ``base_context``).

    g is one ``metric_at``, read when the context is built; Gamma and R come
    from one ``_curvature_pass`` that reuses it, and nabla R from that pass's
    jet (``_nabla_riemann``), each on first use.  All are read-only views.
    ``nabla`` keeps the Jacobian at x of each callable field it is given.
    It holds a copy of x and never the chart, so its methods take the chart
    that keeps it.
    """

    __slots__ = ("x", "g", "_pass", "_curvature", "_nabla_r", "_jacobians")

    def __init__(self, m: ChartedMetric, x: np.ndarray):
        self.x, self.g = x, _read_only(metric_at(m, x))
        self._pass = self._curvature = self._nabla_r = None
        self._jacobians: dict = {}  # id(field) -> (field, its Jacobian at x)

    def curvature(self, m: ChartedMetric) -> tuple:
        """(Gamma, R) at x."""
        if self._curvature is None:
            self._pass = _curvature_pass(m, self.x, self.g)
            self._curvature = _read_only(self._pass.gamma), _read_only(self._pass.r)
        return self._curvature

    def nabla_r(self, m: ChartedMetric) -> np.ndarray:
        """``nabla_riemann_full`` at x, from the jet ``curvature`` read there; for a chart
        not flagged ``locally_symmetric`` (a flagged one has nabla R = 0 and no caller asks)."""
        if self._nabla_r is None:
            self.curvature(m)
            self._nabla_r = _read_only(_nabla_riemann(m, self.x, self._pass))
        return self._nabla_r

    def nabla(self, m: ChartedMetric, xvec: np.ndarray, yfield, yval: np.ndarray) -> np.ndarray:
        """(nabla_X Y)^i = X^a d_a Y^i + Gamma^i_ab X^a Y^b at x, for a ``tangent.VectorField`` Y
        whose components at x the caller has evaluated already: yval (``tangent.field_at(yfield, x)``).
        X may be a stack of rows (k, n), and so may a constant Y, row k pairing with row k; a row
        equals the one-row case bit for bit.

        A constant field (a component vector) has Jacobian 0 and runs no
        stencil.  A callable one is differentiated once per context: its
        Jacobian is kept under the field object's identity, with the field,
        so no later field can take that identity.  This relies on a field
        being a function of x, returning the same components whenever it is
        called at the same x.
        """
        term = np.einsum("iab,...a,...b->...i", self.curvature(m)[0], xvec, yval)
        if not callable(yfield):
            return term
        entry = self._jacobians.get(id(yfield))
        if entry is None:
            entry = self._jacobians[id(yfield)] = (yfield, jacobian(yfield, self.x, FD_STEP_FIRST))
        return np.matvec(entry[1], xvec) + term


def base_context(m: ChartedMetric, x: Point) -> BaseContext:
    """The one ``BaseContext`` of m at x, kept by the chart for its ``_memo_size(m)`` latest base points,
    so the bundle points over one x (eps = +-1 twins too) share g, Gamma, R and nabla R; an x where
    ``metric_at`` raises is not kept.  Keys and callables as in ``oracle.base_jet``."""
    x = np.asarray(x, dtype=float)
    key = x.tobytes()
    context = _memo_get(m._base_points, m, key)
    return _memo_put(m._base_points, m, key, BaseContext(m, x.copy())) if context is None else context


def nabla_riemann_full(m: ChartedMetric, x: Point) -> np.ndarray:
    """All components (nabla_m R)(e_a, e_b)e_c at x (index order [m, i, a, b, c]).

    A raw read, like ``riemann_at``: one curvature pass at x, then
    ``_nabla_riemann`` on its jet.  Charts flagged ``locally_symmetric``
    (space forms) short-circuit to zero.
    """
    x = np.asarray(x, dtype=float)
    if m.locally_symmetric:
        return np.zeros((m.dim,) * 5)
    return _nabla_riemann(m, x, _curvature_pass(m, x))


def _nabla_riemann(m: ChartedMetric, x: np.ndarray, at_x: CurvaturePass) -> np.ndarray:
    """``nabla_riemann_full`` at x from the ``CurvaturePass`` already run there and one stencil.

    d_m R comes from one central-difference stencil on ``points(x,
    FD_STEP_FIRST)``: on a chart with analytic g'', of ``deriv2_fn`` alone,
    whose quotient gives d_m d_c T, and then d_m d_c Gamma and d_m R follow
    in closed form from the jet at x; else the quotient of one curvature
    pass over the stencil rows.  The four Gamma.R corrections turn d_m R
    into nabla_m R (docs/nabla_riemann.md).
    """
    xs = points(x, FD_STEP_FIRST)
    gamma, r = at_x.gamma, at_x.r
    if m.uses_fd_derivatives:
        dr = quotient(_curvature_pass(m, xs).r, FD_STEP_FIRST)
    else:
        ginv, dg, dginv, t, dt, dgamma = at_x.ginv, at_x.dg, at_x.dginv, at_x.t, at_x.dt, at_x.dgamma
        ddt = quotient(_first_kind_derivative(rows(m.deriv2_fn, xs)), FD_STEP_FIRST)
        # d_m d_c g^-1 = -(d_m g^-1)(d_c g) g^-1 - (d_c g^-1)(d_m g) g^-1 - g^-1 (d_m d_c g) g^-1
        half = np.einsum("mip,cpq,qj->mcij", dginv, dg, ginv)
        ddginv = -half - np.swapaxes(half, 0, 1) - np.einsum("ip,mcpq,qj->mcij", ginv, at_x.ddg, ginv)
        # d_m d_c Gamma^i_ab, the product rule on Gamma = g^-1 T / 2
        cross = np.einsum("cil,mlab->mciab", dginv, dt)
        ddgamma = 0.5 * (
            np.einsum("mcil,lab->mciab", ddginv, t)
            + cross
            + np.swapaxes(cross, 0, 1)
            + np.einsum("il,mclab->mciab", ginv, ddt)
        )
        # d_m of R^i_abc = d_a Gamma^i_bc + Gamma^i_ap Gamma^p_bc, less the same with a and b swapped
        half_r = (
            np.einsum("maibc->miabc", ddgamma)
            + np.einsum("miap,pbc->miabc", dgamma, gamma)
            + np.einsum("iap,mpbc->miabc", gamma, dgamma)
        )
        dr = half_r - np.swapaxes(half_r, 2, 3)
    return (
        dr
        + np.einsum("imp,pjkl->mijkl", gamma, r)
        - np.einsum("pmj,ipkl->mijkl", gamma, r)
        - np.einsum("pmk,ijpl->mijkl", gamma, r)
        - np.einsum("pml,ijkp->mijkl", gamma, r)
    )


def plane_gram(g: np.ndarray, xv: np.ndarray, yv: np.ndarray) -> float:
    """The Gram determinant g(X,X)g(Y,Y) - g(X,Y)^2 of the plane spanned by X, Y."""
    return float(xv @ g @ xv) * float(yv @ g @ yv) - float(xv @ g @ yv) ** 2


def gram_scale(g: np.ndarray) -> float:
    """max |g_ij|^2, the scale of a Gram determinant: thresholds on one are multiples of it."""
    return float(np.abs(g).max()) ** 2


def sectional_curvature(m: ChartedMetric, x: Point, xv: np.ndarray, yv: np.ndarray) -> float:
    """Sectional curvature K = R(X,Y,Y,X) / (g(X,X)g(Y,Y) - g(X,Y)^2) of component vectors X, Y."""
    x = np.asarray(x, dtype=float)
    return _sectional(metric_at(m, x), riemann_at(m, x), xv, yv)


def _sectional(g: np.ndarray, r: np.ndarray, xv: np.ndarray, yv: np.ndarray) -> float:
    """``sectional_curvature`` contracted from g and R at a point."""
    denom = plane_gram(g, xv, yv)
    if abs(denom) <= 1e-8 * gram_scale(g):
        raise DegeneratePlane("plane spanned by X, Y is degenerate")
    numer = float(g @ np.einsum("iabc,a,b,c->i", r, xv, yv, yv) @ xv)
    return numer / denom


def signature_at(m: ChartedMetric, x: Point) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of g at x."""
    g = base_context(m, x).g
    eig = np.linalg.eigvalsh(g)
    scale = np.abs(eig).max()
    if scale == 0.0 or np.abs(eig).min() < 1e-10 * scale:
        raise DegenerateMetric("metric matrix is (numerically) degenerate")
    neg = int(np.sum(eig < 0.0))
    return m.dim - neg, neg


def space_form_chart(spec: SpaceFormSpec) -> ChartedMetric:
    """Conformal chart of constant sectional curvature.

    g_ij(x) = eps_i delta_ij / F(x)^2 with F(x) = 1 + (c/4) sum_k eps_k x_k^2
    and eps_k = -1 for the first ``index`` coordinates, +1 otherwise.  The
    domain is {F > 0.05}.  Analytic first and second derivatives are
    supplied, and constant curvature is a *validated* property: see
    ``validate_space_form``.
    """
    n, nu, c = spec.dim, spec.index, float(spec.curvature)
    if n < 2 or not 0 <= nu <= n:
        raise ValueError(f"invalid space form spec {spec}")
    signs = np.array([-1.0] * nu + [1.0] * (n - nu))
    eps_diag = np.diag(signs)

    def conf(x):  # F, a Python float at one point (see power)
        s = np.vecdot(x * x, signs)
        return 1.0 + 0.25 * c * (float(s) if s.ndim == 0 else s)

    def power(f, k, axes):
        # each row's F^k by libm as a Python float (numpy's array power can differ in the last bit); raises on overflow
        if type(f) is float:
            return f**k
        return np.array([v**k for v in f.ravel().tolist()]).reshape(f.shape + (1,) * axes)

    @takes_stacks
    def metric_fn(x):
        return eps_diag / power(conf(x), 2, 2)

    half_c_signs = 0.5 * c * signs  # d_k F = half_c_signs[k] x_k
    ddf = 0.5 * c * eps_diag  # d_k d_l F

    @takes_stacks
    def deriv1_fn(x):
        df = half_c_signs * x
        return (-2.0 * df / power(conf(x), 3, 1))[..., None, None] * eps_diag

    @takes_stacks
    def deriv2_fn(x):
        f = conf(x)
        df = half_c_signs * x
        coef = 6.0 * (df[..., :, None] * df[..., None, :]) / power(f, 4, 2) - 2.0 * ddf / power(f, 3, 2)
        return coef[..., None, None] * eps_diag

    return ChartedMetric(
        dim=n,
        index=nu,
        metric_fn=metric_fn,
        deriv1_fn=deriv1_fn,
        deriv2_fn=deriv2_fn,
        domain_fn=takes_stacks(lambda x: conf(x) > 0.05),
        locally_symmetric=True,
        name=f"space_form(n={n},nu={nu},c={c:g})",
    )


def validate_space_form(
    m: ChartedMetric,
    spec: SpaceFormSpec,
    rng: np.random.Generator,
    num_points: int = 10,
) -> float:
    """Max |K - c| over sampled nondegenerate planes; raises ``SpaceFormMismatch`` if above 1e-8 or not finite.

    Each point is drawn with its ``SPACE_FORM_PLANES`` planes in turn, and
    then one ``_curvature_pass`` over the (num_points, n) stack of points and
    their kept g gives the R that serves all of their planes.
    """
    from .sampling import sample_domain_point, sample_tangent_plane

    xs, gs, planes = [], [], []
    for _ in range(num_points):
        xs.append(sample_domain_point(m, rng))
        gs.append(base_context(m, xs[-1]).g)
        planes.append([sample_tangent_plane(m, xs[-1], rng) for _ in range(SPACE_FORM_PLANES)])
    at = _curvature_pass(m, np.array(xs), np.array(gs))
    gs, rs = at.g, at.r
    worst = 0.0
    for g, r, point_planes in zip(gs, rs, planes):
        for xv, yv in point_planes:
            dev = abs(_sectional(g, r, xv, yv) - spec.curvature)
            if not math.isfinite(dev):
                raise SpaceFormMismatch(f"space form validation failed: K - c = {dev} for {spec}")
            worst = max(worst, dev)
    if worst > 1e-8:
        raise SpaceFormMismatch(f"space form validation failed: max |K - c| = {worst:.3e} for {spec}")
    return worst
