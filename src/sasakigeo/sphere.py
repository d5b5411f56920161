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

from .errors import PointMismatch
from .manifold import ChartedMetric, base_context
from .tangent import (
    PartsVector,
    TMPoint,
    VectorField,
    _check_kinds,
    _lift_connection,
    _read_only,
    _same_coords,
    add_lifts,
    contract_lifts,
    field_at,
    kept_geometry,
)


@dataclass(frozen=True, eq=False)
class SBPoint:
    """A point (x, u) of T_eps M; use ``sb_point`` to construct validated.

    It keeps one ``PointGeometry`` and one ``oracle.GaussOracle`` per chart
    it is used with (see ``point_geometry`` and ``oracle.gauss_oracle``), so
    x and u must not be changed in place: build a new point instead.
    """

    x: np.ndarray
    u: np.ndarray
    eps: int
    _geometry: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))

    @cached_property
    def tm(self) -> TMPoint:
        """The point of TM under p, one object per p, so that ``tm_nabla`` at it and
        ``sb_nabla`` at p share its one ``lift_connection_array``."""
        return TMPoint(self.x, self.u)


class SBVec(PartsVector):
    """hpart^h + tpart^t at an SBPoint with g(tpart, u) = 0, the caller's duty (unchecked; lifts, samplers
    and closed forms keep it).  Closed forms read the t part as given: a u component gives wrong values.

    The (h, t) parts are one read-only array of length 2n (``PartsVector``):
    ``comps()`` returns it without a copy, ``hpart`` and ``tpart`` are views of
    its halves, and a closed form hands over the array it computed with
    ``SBVec.of(p, parts)``.  ``SBVec(p, hpart, tpart)`` joins two parts.
    """

    __slots__ = ()
    tpart = property(PartsVector._second)

    def _require_same(self, other: "SBVec") -> None:
        require_same_sb_point(self.at, other)


@dataclass(frozen=True, eq=False)
class SBFrame:
    """Pseudo-orthonormal frame [e_1^t .. e_{n-1}^t, e_1^h .. e_{n-1}^h, u^h].

    {e_1, .., e_{n-1}, u} is a g-orthonormal base frame with g(u, u) = eps.
    ``columns`` holds the (h, t) parts of the listed bundle vectors as columns and
    ``signs`` their diagonal Gram entries, both the arrays ``PointGeometry.frame``
    keeps; ``vectors`` wraps the columns as ``SBVec`` on first use.
    """

    at: SBPoint
    columns: np.ndarray
    signs: np.ndarray
    base_frame: tuple
    base_signs: np.ndarray

    @cached_property
    def vectors(self) -> tuple:
        return tuple(SBVec.of(self.at, col) for col in self.columns.T)


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
    """Every vector must live at p; a vector built at p itself passes at once, and equal
    coordinates pass before the 1e-12 tolerance is tried."""
    for v in vecs:
        q = v.at
        if q is not p and not (q.eps == p.eps and _same_coords(q.x, p.x) and _same_coords(q.u, p.u)):
            raise PointMismatch("sphere-bundle vectors live at different points")


def tangential_lift(m: ChartedMetric, p: SBPoint, xcomps: np.ndarray) -> SBVec:
    """X^t = X^v - eps g(X, u) N, stored via its u-orthogonal vertical part."""
    return SBVec(p, np.zeros(m.dim), point_geometry(m, p).tangential_part(np.asarray(xcomps, dtype=float)))


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
    """The metric induced from Tg: g(a_h, b_h) + g(a_t, b_t), the one-row case of ``PointGeometry.gbar_rows``."""
    require_same_sb_point(p, a, b)
    return float(point_geometry(m, p).gbar_rows(a.comps(), b.comps()))


def frame_at(m: ChartedMetric, p: SBPoint) -> SBFrame:
    """The pseudo-orthonormal frame at p: the arrays of ``PointGeometry.frame`` and ``base_frame``, wrapped with p."""
    geo = point_geometry(m, p)
    columns, signs = geo.frame
    es, e_signs = geo.base_frame
    return SBFrame(p, columns, signs, es, e_signs)


def frame_gram(m: ChartedMetric, frame: SBFrame) -> np.ndarray:
    """Induced-metric Gram matrix of the frame vectors."""
    return parts_metric(point_geometry(m, frame.at).base.g, frame.columns, frame.columns)


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
    """Levi-Civita connection of the induced metric on lift fields: the one-row case of ``sb_nabla_rows``.

    ``PointGeometry.connection`` contracted with the lifts, plus the base
    connection term when X^h is horizontal, the tangential part projected by P:

    nabla_{X^t} Y^t = -eps g(Y,u) X^t
    nabla_{X^t} Y^h = 1/2 h{R(u,X)Y}
    nabla_{X^h} Y^t = (nabla_X Y)^t + 1/2 h{R(u,Y)X}
    nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 t{R(X,Y)u}
    """
    _check_kinds(kind_x, kind_y, allowed=("h", "t"))
    geo = point_geometry(m, p)
    xval, yval = field_at(xfield, p.x), field_at(yfield, p.x)
    x_h = kind_x == "h"
    return SBVec.of(p, sb_nabla_rows(geo, xval, yval, x_h, kind_y == "h", geo.base.nabla(m, xval, yfield, yval) if x_h else None))


def sb_nabla_rows(geo: "PointGeometry", x: np.ndarray, y: np.ndarray, x_h, y_h, nabla_xy=None) -> np.ndarray:
    """nabla-bar_A B on (h, t) parts for the lift fields A of x and B of y, one vector or a stack of rows.

    x and y are the base components of the lifts (as they are, not projected),
    with ``x_h`` (``y_h``) true for a horizontal lift and false for a
    tangential one, one bool or one per row: ``contract_lifts`` of
    ``PointGeometry.connection`` covers all four kind pairs in one call.
    ``nabla_xy`` holds nabla_X Y in the rows where A = X^h and zero in the
    others, or is None when no row is horizontal; it is added to B's half
    (``tangent.add_lifts``).  The caller computes it, so a callable Y is
    differentiated as its field.  Every t output part is projected by P.
    ``sb_nabla`` is the one-row case, and a row of a stack equals it bit
    for bit.
    """
    out = contract_lifts(geo.connection, x, y, x_h, y_h)
    if nabla_xy is not None:
        add_lifts(out, nabla_xy, y_h)
    tpart = out[..., x.shape[-1] :]
    tpart[...] = np.matvec(geo.proj, tpart)
    return out


class PointGeometry:
    """The geometry of one chart at one bundle point p, each part built at most once.

    ``point_geometry`` keeps one per chart on p.  ``base`` is the
    ``base_context`` at x, shared by every bundle point over x, so g, Gamma,
    R (``riemann_at``, operator order) and nabla R are built once per base
    point; ``connection`` starts from the ``lift_connection_array`` that
    ``p.tm`` keeps.  The arrays are read-only, and the object holds x, u,
    eps and ``p.tm`` but never p itself.

    ``ruu[i, a]`` is the i-component of R(e_a, u)u, ``proj`` = I - eps u (g u)^T
    maps a vertical part to its u-orthogonal tangential representative,
    ``gbar`` = diag(g, g) is the induced metric on (h, t) parts, and
    ``nabla_r`` is None when the chart is locally symmetric (then nabla R = 0).
    """

    def __init__(self, m: ChartedMetric, p: SBPoint):
        self.m = m
        self.u, self.eps, self._tm = p.u, p.eps, p.tm
        self.base = base_context(m, p.x)

    @cached_property
    def gu(self) -> np.ndarray:
        return _read_only(self.base.g @ self.u)

    @cached_property
    def proj(self) -> np.ndarray:
        return _read_only(np.eye(self.m.dim) - self.eps * np.outer(self.u, self.gu))

    @cached_property
    def gbar(self) -> np.ndarray:
        n = self.u.size
        gb = np.zeros((2 * n, 2 * n))
        gb[:n, :n] = gb[n:, n:] = self.base.g
        return _read_only(gb)

    def gbar_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The induced metric of (h, t) parts a and b, vectors or stacks of rows: one ``np.vecmat`` with
        ``gbar`` and one ``np.vecdot`` per row, so a row of a stack equals the one-row case bit for bit."""
        return np.vecdot(np.vecmat(a, self.gbar), b)

    @cached_property
    def eps_u(self) -> np.ndarray:
        """eps u, exact for eps = +-1, so g(X, u) (eps u) rounds as eps g(X, u) u does."""
        return _read_only(self.eps * self.u)

    def tangential_part(self, x: np.ndarray) -> np.ndarray:
        """The u-orthogonal t part X - eps g(X, u) u of the tangential lift X^t, for x of shape (..., n).

        The one implementation of the projection on vectors (``proj`` is its
        matrix): ``tangential_lift``, the samplers and the stacked lift pairs
        of ``contact`` read it.  g(X, u) is one ``np.vecmat`` and one
        ``np.vecdot`` per row, so row k of a stack equals the one-row case
        x[k] bit for bit.
        """
        return x - np.vecdot(np.vecmat(x, self.base.g), self.u, keepdims=True) * self.eps_u

    @cached_property
    def ruu(self) -> np.ndarray:
        return _read_only(np.einsum("iabc,b,c->ia", self.base.curvature(self.m)[1], self.u, self.u))

    @cached_property
    def nabla_r(self) -> np.ndarray | None:
        if self.m.locally_symmetric:
            return None
        return self.base.nabla_r(self.m)

    @cached_property
    def rbar(self) -> np.ndarray:
        """R-bar in the (h, t) parts basis, ``sb_curvature_array`` of this geometry."""
        return _read_only(sb_curvature_array(self))

    @cached_property
    def connection(self) -> np.ndarray:
        """The connection array of the induced metric on (h, t) parts, by the Gauss formula
        nabla-bar_A B = tan(nabla-tilde_A B): the ``lift_connection_array`` that ``p.tm`` keeps plus
        the normal term nabla-bar_{X^t} Y^t = -eps g(Y, u) X^t.  A tangential output part w is (P w)^t.
        """
        n = self.u.size
        gb = np.array(kept_geometry(self.m, self._tm, _lift_connection))
        gb[n:, n:, n:] = -self.eps * np.einsum("oa,b->oab", np.eye(n), self.gu)
        return _read_only(gb)

    @cached_property
    def connection_xi(self) -> np.ndarray:
        """The matrix of a -> Gamma-bar(a, XI) on parts, XI = (2u, 0) the parts of xi: the
        connection term of nabla-bar_a xi (``contact.nabla_xi``), which fills the h slot."""
        return _read_only(self.connection[:, :, : self.u.size] @ (2.0 * self.u))

    @cached_property
    def phi_parts(self) -> np.ndarray:
        """The contact tensor phi on (h, t) parts whose t part is u-orthogonal (the
        ``SBVec`` invariant): there PHI = [[0, -I], [P, 0]] equals [[0, -P], [P, 0]].

        phi(X^h) = (P X)^t and phi(W^t) = -W^h.  The -I block leaves the t part
        as it is: a second P on an already projected part only adds rounding.
        """
        n = self.u.size
        phi = np.zeros((2 * n, 2 * n))
        phi[:n, n:] = -np.eye(n)
        phi[n:, :n] = self.proj
        return _read_only(phi)

    @cached_property
    def nabla_phi_parts(self) -> np.ndarray:
        """``N[o, a, b]``, the o-part of (nabla-bar_{e_a} phi) e_b: (nabla-bar_a phi) b = ``contract(N, a, b)``
        for parts a and b whose t parts are u-orthogonal (the ``SBVec`` invariant).

        N(a, b) = a(PHI) b + Gamma-bar(a, PHI b) - PHI Gamma-bar(a, b) with PHI = ``phi_parts``, every
        t output row projected by P.  On such parts PHI acts as [[0, -P], [P, 0]] and P is parallel along
        horizontal lifts, so for a = X^h + W^t and b = Y^h + Z^t, a(PHI) b = (-a(P) Z, a(P) Y) with
        a(P) = -eps (W (g u)^T + u (g W)^T).
        """
        n = self.u.size
        conn, phi = self.connection, self.phi_parts
        shape = conn.shape
        out = (conn.reshape(-1, 2 * n) @ phi).reshape(shape) - (phi @ conn.reshape(2 * n, -1)).reshape(shape)
        a_p = -self.eps * (np.eye(n)[:, :, None] * self.gu + self.u[:, None, None] * self.base.g)  # [i, W_j, y_l]
        out[:n, n:, n:] -= a_p
        out[n:, n:, :n] += a_p
        out[n:] = (self.proj @ out[n:].reshape(n, -1)).reshape(n, 2 * n, 2 * n)
        return _read_only(out)

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

        B, an orthonormal basis of u's g-orthogonal complement (the range of
        ``proj``), comes from one SVD; B^T g B = Q Lambda Q^T gives the frame
        B Q |Lambda|^(-1/2) with signs sign(Lambda).  No eigenvalue is zero:
        g(u, u) = eps makes the complement nondegenerate.
        """
        b = np.linalg.svd(self.proj)[0][:, :-1]
        lam, q = np.linalg.eigh(b.T @ self.base.g @ b)
        es = b @ q / np.sqrt(np.abs(lam))
        return tuple(_read_only(e) for e in es.T), _read_only(np.sign(lam))

    @cached_property
    def frame(self) -> tuple:
        """(F, signs) of the bundle frame [e_1^t .. e_{n-1}^t, e_1^h .. e_{n-1}^h, u^h] on ``base_frame``:
        F holds the frame vectors' (h, t) parts as columns, and signs their diagonal Gram entries."""
        es, e_signs = self.base_frame
        n = self.u.size
        f = np.zeros((2 * n, 2 * n - 1))
        for k, e in enumerate(es):
            f[n:, k] = self.tangential_part(e)
            f[:n, n - 1 + k] = e
        f[:n, -1] = self.u
        return _read_only(f), _read_only(np.concatenate([e_signs, e_signs, [float(self.eps)]]))

    @cached_property
    def h_matrix(self) -> np.ndarray:
        """h's matrix in the bundle frame, signs * parts_metric(g, F, H F) with H = ``h_parts``."""
        f, signs = self.frame
        return _read_only(signs[:, None] * parts_metric(self.base.g, f, self.h_parts @ f))


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
    r, gu = geo.base.curvature(geo.m)[1], geo.gu
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
    return SBVec.of(p, contract(point_geometry(m, p).rbar, a.comps(), b.comps(), c.comps()))


def contract(t: np.ndarray, *vecs: np.ndarray) -> np.ndarray:
    """t contracted with vecs on its last len(vecs) axes, t(.., a, b, c) for vecs (a, b, c), its
    remaining axes flattened: shape (M,), or (1,) when every axis is contracted.

    The vecs are vectors, or stacks of rows of one shape (..., c_i) with
    ``out[k]`` = ``contract(t, *(v[k] for v in vecs))``.  The last vector goes
    first, and each step is one ``np.matvec`` of the flattened array with a
    row, the (M, c) by (c,) product ``@`` makes: ``contract(rb, a, b, c)``
    equals ``((rb @ c) @ b) @ a``, and a row of a stack equals its one-row
    case bit for bit, a NaN staying in its row.  Vectors skip the stack's
    lead axes in the reshapes.  A C-contiguous t is reshaped without a copy.
    """
    lead = vecs[0].shape[:-1]
    if not lead:
        for v in reversed(vecs):
            t = np.matvec(t.reshape(-1, v.size), v)
        return t
    out = np.matvec(t.reshape(-1, vecs[-1].shape[-1]), vecs[-1])
    for v in vecs[-2::-1]:
        out = np.matvec(out.reshape(lead + (-1, v.shape[-1])), v)
    return out
