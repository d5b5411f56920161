"""The tangent (pseudo-)sphere bundle T_eps M = {(x, u) : g_x(u, u) = eps}.

T_eps M is the hypersurface of (TM, Tg) with unit normal N = u^i (d/du^i),
Tg(N, N) = eps.  Its tangent space is spanned by horizontal lifts X^h and
tangential lifts X^t = X^v - eps g(X, u) N.  Tangential parts are stored
u-orthogonally (the canonical coset representative, since u^t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameConstructionFailure, PointMismatch
from .manifold import (
    ChartedMetric,
    RiemannTensor,
    metric_at,
    nabla_riemann_full,
    riemann_at,
)
from .tangent import (
    TMPoint,
    TMVec,
    VectorField,
    field_at,
    field_jacobian,
    nabla_vector_field,
)


@dataclass(frozen=True)
class SBPoint:
    """A point (x, u) of T_eps M; use ``sb_point`` to construct validated."""

    x: np.ndarray
    u: np.ndarray
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))

    @property
    def tm(self) -> TMPoint:
        return TMPoint(self.x, self.u)


@dataclass(frozen=True)
class SBVec:
    """hpart^h + tpart^t at an SBPoint, with g(tpart, u) = 0."""

    at: SBPoint
    hpart: np.ndarray
    tpart: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hpart", np.asarray(self.hpart, dtype=float))
        object.__setattr__(self, "tpart", np.asarray(self.tpart, dtype=float))

    def __add__(self, other: "SBVec") -> "SBVec":
        require_same_sb_point(self, other)
        return SBVec(self.at, self.hpart + other.hpart, self.tpart + other.tpart)

    def __sub__(self, other: "SBVec") -> "SBVec":
        return self + (-1.0) * other

    def __rmul__(self, s: float) -> "SBVec":
        return SBVec(self.at, s * self.hpart, s * self.tpart)

    def __neg__(self) -> "SBVec":
        return SBVec(self.at, -self.hpart, -self.tpart)

    def comps(self) -> np.ndarray:
        return np.concatenate([self.hpart, self.tpart])


@dataclass(frozen=True)
class SBFrame:
    """Pseudo-orthonormal frame [e_1^t .. e_{n-1}^t, e_1^h .. e_{n-1}^h, u^h].

    {e_1, .., e_{n-1}, u} is a g-orthonormal base frame with g(u, u) = eps.
    ``signs`` are the diagonal Gram entries of the listed bundle vectors.
    """

    at: SBPoint
    vectors: tuple
    signs: np.ndarray
    base_frame: tuple
    base_signs: np.ndarray


def sb_point(m: ChartedMetric, x: np.ndarray, u: np.ndarray, eps: int) -> SBPoint:
    """Validated construction: finite x and u with |g(u, u) - eps| <= 1e-10."""
    if eps not in (-1, 1):
        raise ValueError("eps must be +1 or -1")
    if eps == -1 and m.index == 0:
        raise ValueError("eps = -1 requires a base metric of index >= 1")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
        raise ValueError(f"bundle point ({x}, {u}) is not finite")
    g = metric_at(m, x)
    q = float(u @ g @ u)
    if not abs(q - eps) <= 1e-10:
        raise ValueError(f"g(u, u) = {q!r} is not eps = {eps}")
    return SBPoint(x, u, eps)


def require_same_sb_point(a: SBVec, b: SBVec) -> None:
    if a.at is b.at:
        return
    if not (
        a.at.eps == b.at.eps
        and np.allclose(a.at.x, b.at.x, atol=1e-12)
        and np.allclose(a.at.u, b.at.u, atol=1e-12)
    ):
        raise PointMismatch("sphere-bundle vectors live at different points")


def normal_at(m: ChartedMetric, p: SBPoint) -> TMVec:
    """Unit normal N = u^i (d/du^i)^v with Tg(N, N) = eps."""
    return TMVec(p.tm, np.zeros(m.dim), p.u)


def tangential_lift(m: ChartedMetric, p: SBPoint, xcomps: np.ndarray) -> SBVec:
    """X^t = X^v - eps g(X, u) N, stored via its u-orthogonal vertical part."""
    g = metric_at(m, p.x)
    x = np.asarray(xcomps, dtype=float)
    return SBVec(p, np.zeros(m.dim), x - p.eps * float(x @ g @ p.u) * p.u)


def horizontal_sb(p: SBPoint, xcomps: np.ndarray) -> SBVec:
    """X^h as a vector tangent to T_eps M."""
    return SBVec(p, np.asarray(xcomps, dtype=float), np.zeros(p.u.size))


def lift(m: ChartedMetric, p: SBPoint, kind: str, w: np.ndarray) -> SBVec:
    """The lift w^h (kind 'h') or w^t (kind 't') of a base vector w."""
    if kind == "h":
        return horizontal_sb(p, w)
    if kind == "t":
        return tangential_lift(m, p, w)
    raise ValueError(f"sphere-bundle lift kind must be 'h' or 't', got {kind!r}")


def sb_vec(m: ChartedMetric, p: SBPoint, hpart: np.ndarray, tpart: np.ndarray) -> SBVec:
    """Build an SBVec, canonicalizing tpart to the u-orthogonal representative."""
    return horizontal_sb(p, hpart) + tangential_lift(m, p, tpart)


def induced_metric_at(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec) -> float:
    """The metric induced from Tg: g(a_h, b_h) + g(a_t, b_t)."""
    require_same_sb_point(a, b)
    g = metric_at(m, p.x)
    return float(a.hpart @ g @ b.hpart + a.tpart @ g @ b.tpart)


def frame_at(m: ChartedMetric, p: SBPoint, seed: int = 0) -> SBFrame:
    """Signature-aware Gram-Schmidt frame with pivoting.

    Candidate vectors are the coordinate basis followed by seeded random
    draws; candidates whose projection has |g(w, w)| < 1e-6 are skipped.
    """
    n = m.dim
    g = metric_at(m, p.x)
    basis = [p.u]
    signs = [float(p.eps)]
    rng = np.random.default_rng(seed)
    candidates = list(np.eye(n))
    attempts = 0
    while len(basis) < n:
        if candidates:
            cand = candidates.pop(0)
        else:
            attempts += 1
            if attempts > 64:
                raise FrameConstructionFailure("no usable pivot after 64 random draws")
            cand = rng.normal(size=n)
            cand /= np.linalg.norm(cand)
        w = cand.astype(float)
        for e, s in zip(basis, signs):
            w = w - s * float(w @ g @ e) * e
        q = float(w @ g @ w)
        if abs(q) < 1e-6:
            continue
        basis.append(w / np.sqrt(abs(q)))
        signs.append(np.sign(q))
    es = basis[1:]
    e_signs = np.array(signs[1:])
    vectors = (
        [tangential_lift(m, p, e) for e in es]
        + [horizontal_sb(p, e) for e in es]
        + [horizontal_sb(p, p.u)]
    )
    frame_signs = np.concatenate([e_signs, e_signs, [float(p.eps)]])
    return SBFrame(p, tuple(vectors), frame_signs, tuple(es), e_signs)


def frame_gram(m: ChartedMetric, frame: SBFrame) -> np.ndarray:
    k = len(frame.vectors)
    gram = np.empty((k, k))
    for i, a in enumerate(frame.vectors):
        for j, b in enumerate(frame.vectors):
            gram[i, j] = induced_metric_at(m, frame.at, a, b)
    return gram


def expand_in_frame(m: ChartedMetric, frame: SBFrame, v: SBVec) -> np.ndarray:
    """Coefficients of v in the (pseudo-orthonormal) frame."""
    return np.array(
        [s * induced_metric_at(m, frame.at, v, e) for e, s in zip(frame.vectors, frame.signs)]
    )


def sb_bracket(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    p: SBPoint,
) -> SBVec:
    """Brackets of lift fields on T_eps M.

    [X^h, Y^t] = (nabla_X Y)^t
    [X^t, Y^t] = eps g(X,u) Y^t - eps g(Y,u) X^t
    [X^h, Y^h] = [X, Y]^h - t{R(X,Y)u}
    """
    _check_kinds(kind_x, kind_y)
    x0, u0, eps = p.x, p.u, p.eps
    xval = field_at(xfield, x0)
    yval = field_at(yfield, x0)
    g = metric_at(m, x0)
    if kind_x == "t" and kind_y == "t":
        return eps * float(xval @ g @ u0) * tangential_lift(m, p, yval) + (
            -eps * float(yval @ g @ u0)
        ) * tangential_lift(m, p, xval)
    if kind_x == "h" and kind_y == "t":
        return tangential_lift(m, p, nabla_vector_field(m, xval, yfield, x0))
    if kind_x == "t" and kind_y == "h":
        return (-1.0) * tangential_lift(m, p, nabla_vector_field(m, yval, xfield, x0))
    lie = field_jacobian(yfield, x0) @ xval - field_jacobian(xfield, x0) @ yval
    riem = riemann_at(m, x0)
    return horizontal_sb(p, lie) + (-1.0) * tangential_lift(m, p, riem.apply(xval, yval, u0))


def sb_nabla(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    p: SBPoint,
) -> SBVec:
    """Levi-Civita connection of the induced metric on lift fields.

    nabla_{X^t} Y^t = -eps g(Y,u) X^t
    nabla_{X^t} Y^h = 1/2 h{R(u,X)Y}
    nabla_{X^h} Y^t = (nabla_X Y)^t + 1/2 h{R(u,Y)X}
    nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 t{R(X,Y)u}
    """
    _check_kinds(kind_x, kind_y)
    x0, u0, eps = p.x, p.u, p.eps
    xval = field_at(xfield, x0)
    yval = field_at(yfield, x0)
    if kind_x == "t" and kind_y == "t":
        g = metric_at(m, x0)
        return (-eps * float(yval @ g @ u0)) * tangential_lift(m, p, xval)
    riem = riemann_at(m, x0)
    if kind_x == "t" and kind_y == "h":
        return horizontal_sb(p, 0.5 * riem.apply(u0, xval, yval))
    if kind_x == "h" and kind_y == "t":
        dxy = nabla_vector_field(m, xval, yfield, x0)
        return tangential_lift(m, p, dxy) + horizontal_sb(p, 0.5 * riem.apply(u0, yval, xval))
    dxy = nabla_vector_field(m, xval, yfield, x0)
    return horizontal_sb(p, dxy) + (-0.5) * tangential_lift(m, p, riem.apply(xval, yval, u0))


class _CurvatureContext:
    """Shared per-point data for the six closed curvature cases."""

    def __init__(self, m: ChartedMetric, p: SBPoint):
        self.m = m
        self.p = p
        self.g = metric_at(m, p.x)
        self.riem = riemann_at(m, p.x)
        self.u = p.u
        self.eps = p.eps
        self._nabla_r_full = None

    def r(self, a, b, c):
        return self.riem.apply(a, b, c)

    def gu(self, a):
        return float(a @ self.g @ self.u)

    def nabla_r(self, direction):
        if self._nabla_r_full is None:
            self._nabla_r_full = nabla_riemann_full(self.m, self.p.x)
        return RiemannTensor(np.einsum("m,mijkl->ijkl", direction, self._nabla_r_full))

    def t(self, w):
        return tangential_lift(self.m, self.p, w)

    def h(self, w):
        return horizontal_sb(self.p, w)

    def gbar_tt(self, a, b):
        # induced metric of two tangential lifts of arbitrary base vectors
        return float(a @ self.g @ b) - self.eps * self.gu(a) * self.gu(b)


def _case_ttt(ctx, x, y, z):
    return ctx.eps * (-ctx.gbar_tt(x, z)) * ctx.t(y) + ctx.eps * ctx.gbar_tt(z, y) * ctx.t(x)


def _case_tth(ctx, x, y, z):
    comm = ctx.r(ctx.u, x, ctx.r(ctx.u, y, z)) - ctx.r(ctx.u, y, ctx.r(ctx.u, x, z))
    w = (
        ctx.r(x, y, z)
        - ctx.eps * (ctx.gu(y) * ctx.r(x, ctx.u, z) + ctx.gu(x) * ctx.r(ctx.u, y, z))
        + 0.25 * comm
    )
    return ctx.h(w)


def _case_htt(ctx, x, y, z):
    w = (
        -0.5 * ctx.r(y, z, x)
        + 0.5 * ctx.eps * (ctx.gu(y) * ctx.r(ctx.u, z, x) + ctx.gu(z) * ctx.r(y, ctx.u, x))
        - 0.25 * ctx.r(ctx.u, y, ctx.r(ctx.u, z, x))
    )
    return ctx.h(w)


def _case_hth(ctx, x, y, z):
    wt = (
        0.5 * ctx.r(x, z, y)
        - 0.5 * ctx.eps * ctx.gu(y) * ctx.r(x, z, ctx.u)
        - 0.25 * ctx.r(x, ctx.r(ctx.u, y, z), ctx.u)
    )
    wh = 0.5 * ctx.nabla_r(x).apply(ctx.u, y, z)
    return ctx.t(wt) + ctx.h(wh)


def _case_hht(ctx, x, y, z):
    wt = (
        ctx.r(x, y, z)
        - ctx.eps * ctx.gu(z) * ctx.r(x, y, ctx.u)
        + 0.25 * (ctx.r(y, ctx.r(ctx.u, z, x), ctx.u) - ctx.r(x, ctx.r(ctx.u, z, y), ctx.u))
    )
    wh = 0.5 * (ctx.nabla_r(x).apply(ctx.u, z, y) - ctx.nabla_r(y).apply(ctx.u, z, x))
    return ctx.t(wt) + ctx.h(wh)


def _case_hhh(ctx, x, y, z):
    wh = (
        ctx.r(x, y, z)
        + 0.5 * ctx.r(ctx.u, ctx.r(x, y, ctx.u), z)
        - 0.25 * (ctx.r(ctx.u, ctx.r(y, z, ctx.u), x) - ctx.r(ctx.u, ctx.r(x, z, ctx.u), y))
    )
    wt = 0.5 * ctx.nabla_r(z).apply(x, y, ctx.u)
    return ctx.h(wh) + ctx.t(wt)


def sb_curvature(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec, c: SBVec) -> SBVec:
    """Curvature operator R(a, b)c of the induced metric.

    Each argument is split into horizontal and tangential parts and the six
    closed cases are combined trilinearly; the mixed orders (t, h, .) follow
    from antisymmetry in (a, b).
    """
    require_same_sb_point(a, b)
    require_same_sb_point(a, c)
    ctx = _CurvatureContext(m, p)
    ah, at = a.hpart, a.tpart
    bh, bt = b.hpart, b.tpart
    ch, ct = c.hpart, c.tpart
    total = _case_ttt(ctx, at, bt, ct)
    total = total + _case_tth(ctx, at, bt, ch)
    total = total + _case_htt(ctx, ah, bt, ct)
    total = total + _case_hth(ctx, ah, bt, ch)
    total = total + (-1.0) * _case_htt(ctx, bh, at, ct)
    total = total + (-1.0) * _case_hth(ctx, bh, at, ch)
    total = total + _case_hht(ctx, ah, bh, ct)
    total = total + _case_hhh(ctx, ah, bh, ch)
    return total


def _check_kinds(kind_x: str, kind_y: str) -> None:
    if kind_x not in "ht" or kind_y not in "ht":
        raise ValueError(f"sphere-bundle lift kinds must be 'h' or 't', got ({kind_x}, {kind_y})")
