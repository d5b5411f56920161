"""The tangent (pseudo-)sphere bundle T_eps M = {(x, u) : g_x(u, u) = eps}.

T_eps M is the hypersurface of (TM, Tg) with unit normal N = u^i (d/du^i),
Tg(N, N) = eps.  Its tangent space is spanned by horizontal lifts X^h and
tangential lifts X^t = X^v - eps g(X, u) N.  Tangential parts are stored
u-orthogonally (the canonical coset representative, since u^t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FrameConstructionFailure, PointMismatch
from .manifold import ChartedMetric, nabla_riemann_full
from .tangent import (
    TMPoint,
    TMVec,
    VectorField,
    _check_kinds,
    _nabla_parts,
    _read_only,
    base_geometry,
    kept_geometry,
)


@dataclass(frozen=True)
class SBPoint:
    """A point (x, u) of T_eps M; use ``sb_point`` to construct validated.

    It keeps one ``PointGeometry`` per chart it is used with (see
    ``point_geometry``), so x and u must not be changed in place: build a
    new point instead.
    """

    x: np.ndarray
    u: np.ndarray
    eps: int
    _geometry: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))

    @cached_property
    def tm(self) -> TMPoint:
        """The point of TM under p, one object per p so that both share g, Gamma and R."""
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
        require_same_sb_point(self.at, other)
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

    def parts(self) -> np.ndarray:
        """The frame vectors' (h, t) parts as columns."""
        return np.stack([v.comps() for v in self.vectors], axis=1)


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
    p = SBPoint(x, u, eps)
    g = point_geometry(m, p).base.g
    q = float(u @ g @ u)
    if not abs(q - eps) <= 1e-10:
        raise ValueError(f"g(u, u) = {q!r} is not eps = {eps}")
    return p


def require_same_sb_point(p: SBPoint, *vecs: SBVec) -> None:
    """Every vector must live at p; a vector built at p itself passes at once."""
    for v in vecs:
        q = v.at
        if q is not p and not (
            q.eps == p.eps and np.allclose(q.x, p.x, atol=1e-12) and np.allclose(q.u, p.u, atol=1e-12)
        ):
            raise PointMismatch("sphere-bundle vectors live at different points")


def normal_at(m: ChartedMetric, p: SBPoint) -> TMVec:
    """Unit normal N = u^i (d/du^i)^v with Tg(N, N) = eps."""
    return TMVec(p.tm, np.zeros(m.dim), p.u)


def tangential_lift(m: ChartedMetric, p: SBPoint, xcomps: np.ndarray) -> SBVec:
    """X^t = X^v - eps g(X, u) N, stored via its u-orthogonal vertical part."""
    g = point_geometry(m, p).base.g
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


def induced_metric_at(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec) -> float:
    """The metric induced from Tg: g(a_h, b_h) + g(a_t, b_t)."""
    require_same_sb_point(p, a, b)
    g = point_geometry(m, p).base.g
    return float(a.hpart @ g @ b.hpart + a.tpart @ g @ b.tpart)


def frame_at(m: ChartedMetric, p: SBPoint) -> SBFrame:
    """The pseudo-orthonormal frame at p on ``PointGeometry.base_frame``."""
    es, e_signs = point_geometry(m, p).base_frame
    vectors = (
        [tangential_lift(m, p, e) for e in es]
        + [horizontal_sb(p, e) for e in es]
        + [horizontal_sb(p, p.u)]
    )
    frame_signs = np.concatenate([e_signs, e_signs, [float(p.eps)]])
    return SBFrame(p, tuple(vectors), frame_signs, es, e_signs)


def frame_gram(m: ChartedMetric, frame: SBFrame) -> np.ndarray:
    """Induced-metric Gram matrix of the frame vectors."""
    f = frame.parts()
    return parts_metric(point_geometry(m, frame.at).base.g, f, f)


def sb_bracket(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    p: SBPoint,
) -> SBVec:
    """Brackets of lift fields on T_eps M, [A, B] = nabla_A B - nabla_B A (torsion-free).

    [X^h, Y^t] = (nabla_X Y)^t
    [X^t, Y^t] = eps g(X,u) Y^t - eps g(Y,u) X^t
    [X^h, Y^h] = [X, Y]^h - t{R(X,Y)u}
    """
    return sb_nabla(m, xfield, yfield, kind_x, kind_y, p) - sb_nabla(m, yfield, xfield, kind_y, kind_x, p)


def sb_nabla(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    p: SBPoint,
) -> SBVec:
    """Levi-Civita connection of the induced metric on lift fields.

    ``PointGeometry.connection`` contracted with the lifts, plus the base
    connection term when X^h is horizontal, the tangential part projected by P:

    nabla_{X^t} Y^t = -eps g(Y,u) X^t
    nabla_{X^t} Y^h = 1/2 h{R(u,X)Y}
    nabla_{X^h} Y^t = (nabla_X Y)^t + 1/2 h{R(u,Y)X}
    nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 t{R(X,Y)u}
    """
    _check_kinds(kind_x, kind_y, allowed=("h", "t"))
    geo = point_geometry(m, p)
    out = _nabla_parts(geo.connection, geo.base, xfield, yfield, kind_x, kind_y)
    return SBVec(p, out[: m.dim], geo.proj @ out[m.dim :])


class PointGeometry:
    """The geometry of one chart at one bundle point p, each part built at most once.

    ``point_geometry`` keeps one per chart on p, so every closed form at p
    reads g, Gamma and R once (they come from the ``BaseGeometry`` that p's
    ``tm`` point shares with the tangent-bundle layer).  The arrays are
    read-only, and the object holds x, u and eps but never p itself.

    ``r[i, a, b, c]`` is the i-component of R(e_a, e_b)e_c (operator order),
    ``ruu[i, a]`` that of R(e_a, u)u, and ``proj`` = I - eps u (g u)^T maps a
    vertical part to its u-orthogonal tangential representative.
    ``nabla_r[m, i, a, b, c]`` is (nabla_m R)(e_a, e_b)e_c, or None when the
    chart is locally symmetric (then it is zero).
    """

    def __init__(self, m: ChartedMetric, p: SBPoint):
        self.m = m
        self.u, self.eps = p.u, p.eps
        self.base = base_geometry(m, p.tm)

    @cached_property
    def gu(self) -> np.ndarray:
        return _read_only(self.base.g @ self.u)

    @cached_property
    def proj(self) -> np.ndarray:
        return _read_only(np.eye(self.m.dim) - self.eps * np.outer(self.u, self.gu))

    @cached_property
    def r(self) -> np.ndarray:
        return _read_only(np.einsum("ijkl->iklj", self.base.riem.r))

    @cached_property
    def ruu(self) -> np.ndarray:
        return _read_only(np.einsum("iabc,b,c->ia", self.r, self.u, self.u))

    @cached_property
    def nabla_r(self) -> np.ndarray | None:
        if self.m.locally_symmetric:
            return None
        return _read_only(np.einsum("mijkl->miklj", nabla_riemann_full(self.m, self.base.x)))

    @cached_property
    def rbar(self) -> np.ndarray:
        """R-bar in the (h, t) parts basis, ``sb_curvature_array`` of this geometry."""
        return _read_only(sb_curvature_array(self))

    @cached_property
    def connection(self) -> np.ndarray:
        """The connection array of the induced metric on (h, t) parts, by the Gauss formula
        nabla-bar_A B = tan(nabla-tilde_A B): ``BaseGeometry.connection`` plus the normal
        term nabla-bar_{X^t} Y^t = -eps g(Y, u) X^t.  A tangential output part w is (P w)^t.
        """
        n = self.u.size
        gb = np.array(self.base.connection)
        gb[n:, n:, n:] = -self.eps * np.einsum("oa,b->oab", np.eye(n), self.gu)
        return _read_only(gb)

    @cached_property
    def phi_parts(self) -> np.ndarray:
        """The contact tensor phi on (h, t) parts whose t part is u-orthogonal (the
        ``SBVec`` invariant): there PHI = [[0, -I], [P, 0]] equals [[0, -P], [P, 0]].

        phi(X^h) = (P X)^t and phi(W^t) = -W^h.  The -I block leaves the t part
        as it is: a second P on an already projected part only adds rounding.
        """
        zero = np.zeros_like(self.proj)
        return _read_only(np.block([[zero, -np.eye(self.u.size)], [self.proj, zero]]))

    @cached_property
    def h_parts(self) -> np.ndarray:
        """The contact tensor h on (h, t) parts.

        H = [[(-eps I + R(., u)u) P, 0], [0, P((2 - eps) I - R(., u)u)]].
        """
        n, eps = self.base.g.shape[0], self.eps
        eye = np.eye(n)
        hmat = np.zeros((2 * n, 2 * n))
        hmat[:n, :n] = (-eps * eye + self.ruu) @ self.proj  # P projects out the xi direction
        hmat[n:, n:] = self.proj @ ((2.0 - eps) * eye - self.ruu)
        return _read_only(hmat)

    @cached_property
    def base_frame(self) -> tuple:
        """(e_1 .. e_{n-1}, their signs): with u, a g-orthonormal base frame.

        Signature-aware Gram-Schmidt with pivoting: candidate vectors are the
        coordinate basis followed by random draws from a fixed seed;
        candidates whose projection has |g(w, w)| < 1e-6 are skipped.
        """
        n, g = self.m.dim, self.base.g
        basis = [self.u]
        signs = [float(self.eps)]
        rng = np.random.default_rng(0)
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
        return tuple(_read_only(e) for e in basis[1:]), _read_only(np.array(signs[1:]))


def point_geometry(m: ChartedMetric, p: SBPoint) -> PointGeometry:
    """The one ``PointGeometry`` of chart ``m`` at p; its parts are built on first use."""
    return kept_geometry(m, p, PointGeometry)


def parts_metric(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T (I_2 (x) g) b for (h, t) parts stacked as vectors or columns."""
    n = g.shape[0]
    return a[:n].T @ g @ b[:n] + a[n:].T @ g @ b[n:]


def sb_curvature_array(geo: PointGeometry) -> np.ndarray:
    """R-bar in the (h, t) parts basis: ``rb[o, a, b, c]`` is the o-part of R(e_a, e_b)e_c.

    Parts index 0..n-1 is horizontal and n..2n-1 tangential.  Each block is
    one closed case (the mixed orders (t, h, .) follow from antisymmetry in
    (a, b)), and every tangential output row is projected by P.
    """
    n, eps, u = geo.base.g.shape[0], geo.eps, geo.u
    r, gu = geo.r, geo.gu
    ru = np.einsum("iabc,a->ibc", r, u)  # R(u, .).
    rau = np.einsum("iabc,b->iac", r, u)  # R(., u).
    rabu = np.einsum("iabc,c->iab", r, u)  # R(., .)u
    gt = geo.base.g - eps * np.outer(gu, gu)  # induced metric of tangential lifts
    eye = np.eye(n)
    h, t = slice(0, n), slice(n, 2 * n)
    rb = np.zeros((2 * n,) * 4)
    rb[t, t, t, t] = eps * (np.einsum("cb,oa->oabc", gt, eye) - np.einsum("ac,ob->oabc", gt, eye))
    rb[h, t, t, h] = (
        r
        - eps * (np.einsum("b,oac->oabc", gu, rau) + np.einsum("a,obc->oabc", gu, ru))
        + 0.25 * (np.einsum("oam,mbc->oabc", ru, ru) - np.einsum("obm,mac->oabc", ru, ru))
    )
    htt = (
        -0.5 * np.einsum("obca->oabc", r)
        + 0.5 * eps * (np.einsum("b,oca->oabc", gu, ru) + np.einsum("c,oba->oabc", gu, rau))
        - 0.25 * np.einsum("obm,mca->oabc", ru, ru)
    )
    rb[h, h, t, t] = htt
    rb[h, t, h, t] = -np.swapaxes(htt, 1, 2)
    hth = (
        0.5 * np.einsum("oacb->oabc", r)
        - 0.5 * eps * np.einsum("b,oac->oabc", gu, rabu)
        - 0.25 * np.einsum("oam,mbc->oabc", rabu, ru)
    )
    rb[t, h, t, h] = hth
    rb[t, t, h, h] = -np.swapaxes(hth, 1, 2)
    rb[t, h, h, t] = (
        r
        - eps * np.einsum("c,oab->oabc", gu, rabu)
        + 0.25 * (np.einsum("obm,mca->oabc", rabu, ru) - np.einsum("oam,mcb->oabc", rabu, ru))
    )
    rb[h, h, h, h] = (
        r
        + 0.5 * np.einsum("omc,mab->oabc", ru, rabu)
        - 0.25 * (np.einsum("oma,mbc->oabc", ru, rabu) - np.einsum("omb,mac->oabc", ru, rabu))
    )
    if geo.nabla_r is not None:
        nru = np.einsum("moabc,a->mobc", geo.nabla_r, u)  # (nabla_m R)(u, .).
        hth_h = 0.5 * np.einsum("aobc->oabc", nru)
        rb[h, h, t, h] = hth_h
        rb[h, t, h, h] = -np.swapaxes(hth_h, 1, 2)
        rb[h, h, h, t] = 0.5 * (np.einsum("aocb->oabc", nru) - np.einsum("boca->oabc", nru))
        rb[t, h, h, h] = 0.5 * np.einsum("coabi,i->oabc", geo.nabla_r, u)
    rb[t] = np.einsum("op,pabc->oabc", geo.proj, rb[t])
    return rb


def sb_curvature(m: ChartedMetric, p: SBPoint, a: SBVec, b: SBVec, c: SBVec) -> SBVec:
    """Curvature operator R(a, b)c of the induced metric, contracted from R-bar."""
    require_same_sb_point(p, a, b, c)
    rb = point_geometry(m, p).rbar
    out = ((rb @ c.comps()) @ b.comps()) @ a.comps()
    return SBVec(p, out[: m.dim], out[m.dim :])
