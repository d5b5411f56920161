"""Tangent bundle TM with the Sasaki pseudo-metric.

Tangent vectors of TM are stored as (horizontal part, vertical part) pairs
of base vectors, since every closed formula used here is stated in lifts.
Induced coordinates (x^i; u^i) exist only for conversion and crosschecks:

    X^h  ->  (X ; -Gamma(X, u)),      Y^v  ->  (0 ; Y),

with Gamma(X, u)^i = Gamma^i_ab X^a u^b.

(TM, Tg, J) is almost Hermitian and almost Kaehler; J is integrable (and
the Sasaki metric flat) exactly when the base metric is flat.  Beyond the
Hermitian property this is recorded here for reference only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import PointMismatch
from .manifold import ChartedMetric, _read_only, base_context

VectorField = Union[Callable[[np.ndarray], np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class TMPoint:
    """A point (x, u) of TM.

    Its g, Gamma and R are those of ``base_context(m, x)``, which every point
    over x shares; the point itself keeps only, per chart, the
    ``lift_connection_array`` at (x, u) (see ``kept_geometry``).  So x and u
    must not be changed in place: build a new point instead.
    """

    x: np.ndarray
    u: np.ndarray
    _geometry: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


def kept_geometry(m: ChartedMetric, point, build: Callable):
    """The one ``build(m, point)`` of chart ``m``, kept by the point.

    A point of TM keeps its lift connection array this way, and a point of
    T_eps M its ``PointGeometry`` and ``GaussOracle``.  Entries are keyed by
    (chart, build), the chart compared by ``is``.  Like ``base_context``, an
    entry remembers the chart's metric callables it was built from (compared
    by ``is``) and is built again once the chart holds others.
    """
    kept = point._geometry
    for entry in kept:
        chart, kind, metric_fn, deriv1_fn, deriv2_fn, geo = entry
        if chart is m and kind is build:
            if metric_fn is m.metric_fn and deriv1_fn is m.deriv1_fn and deriv2_fn is m.deriv2_fn:
                return geo
            kept[:] = [e for e in kept if e is not entry]
            break
    geo = build(m, point)
    kept.append((m, build, m.metric_fn, m.deriv1_fn, m.deriv2_fn, geo))
    return geo


class PartsVector:
    """A tangent vector of a bundle at ``at``, kept as one read-only array of its two parts.

    The parts are base components, the horizontal part first: ``comps()`` is
    that array itself (no copy), and ``hpart`` and the second part are views
    of its halves.  ``cls(at, hpart, second)`` joins two parts once, and
    ``cls.of(at, parts)`` takes over an array a closed form has just
    computed, so a result is never split and joined again.  Vectors are
    immutable; arithmetic builds new ones and leaves its operands as they are.
    """

    __slots__ = ("at", "_parts")

    def __init__(self, at, hpart: np.ndarray, second: np.ndarray):
        hpart, second = np.asarray(hpart, dtype=float), np.asarray(second, dtype=float)
        if hpart.shape != second.shape or hpart.ndim != 1:
            raise ValueError(f"the two parts must be vectors of one length, got shapes {hpart.shape} and {second.shape}")
        parts = np.concatenate([hpart, second])
        parts.setflags(write=False)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "_parts", parts)

    @classmethod
    def of(cls, at, parts: np.ndarray):
        """The vector whose parts are the float array ``parts``, which it marks read-only and keeps."""
        parts.setflags(write=False)
        v = object.__new__(cls)
        object.__setattr__(v, "at", at)
        object.__setattr__(v, "_parts", parts)
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def comps(self) -> np.ndarray:
        """The parts, (hpart, second part), as the stored read-only array."""
        return self._parts

    @property
    def hpart(self) -> np.ndarray:
        return self._parts[: self._parts.size // 2]

    def _second(self) -> np.ndarray:
        return self._parts[self._parts.size // 2 :]

    def _require_same(self, other) -> None:
        raise NotImplementedError

    def __add__(self, other):
        self._require_same(other)
        return self.of(self.at, self._parts + other._parts)

    def __sub__(self, other):
        self._require_same(other)
        return self.of(self.at, self._parts - other._parts)

    def __rmul__(self, s: float):
        return self.of(self.at, s * self._parts)

    def __neg__(self):
        return self.of(self.at, -self._parts)

    def __repr__(self) -> str:
        n = self._parts.size // 2
        return f"{type(self).__name__}(at={self.at!r}, parts={self._parts[:n]!r} | {self._parts[n:]!r})"


class TMVec(PartsVector):
    """X^h + Y^v at a TMPoint: ``PartsVector`` with hpart = X and vpart = Y."""

    __slots__ = ()
    vpart = property(PartsVector._second)

    def _require_same(self, other: "TMVec") -> None:
        require_same_tm_point(self, other)


def _same_coords(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal coordinates, or within 1e-12 of each other; exact equality is tried first, and NaN fails both."""
    return bool((a == b).all()) or np.allclose(a, b, rtol=0, atol=1e-12)


def require_same_tm_point(a: TMVec, b: TMVec) -> None:
    """Both vectors must live at one point; vectors built at one ``TMPoint`` pass at once."""
    p, q = a.at, b.at
    if p is not q and not (_same_coords(p.x, q.x) and _same_coords(p.u, q.u)):
        raise PointMismatch("TM vectors live at different bundle points")


def as_field(field: VectorField) -> Callable[[np.ndarray], np.ndarray]:
    """Accept a callable field or a constant component vector."""
    if callable(field):
        return field
    const = np.asarray(field, dtype=float)
    return lambda x: const


def field_at(field: VectorField, x: np.ndarray) -> np.ndarray:
    """The field's components at x; a constant field is its own components."""
    if callable(field):
        return np.asarray(field(np.asarray(x, dtype=float)), dtype=float)
    return np.asarray(field, dtype=float)


def to_induced_coords(m: ChartedMetric, v: TMVec) -> np.ndarray:
    """Components in the induced chart (x^i; u^i) of TM."""
    du = v.vpart - np.einsum("iab,a,b->i", base_context(m, v.at.x).curvature(m)[0], v.hpart, v.at.u)
    return np.concatenate([v.hpart, du])


def from_induced_coords(m: ChartedMetric, at: TMPoint, w: np.ndarray) -> TMVec:
    w = np.asarray(w, dtype=float)
    n = m.dim
    hpart = w[:n]
    vpart = w[n:] + np.einsum("iab,a,b->i", base_context(m, at.x).curvature(m)[0], hpart, at.u)
    return TMVec(at, hpart, vpart)


def sasaki_metric_at(m: ChartedMetric, at: TMPoint, a: TMVec, b: TMVec) -> float:
    """Tg(a, b) = g(a_h, b_h) + g(a_v, b_v) evaluated at pi(at)."""
    require_same_tm_point(a, b)
    g = base_context(m, at.x).g
    return float(a.hpart @ g @ b.hpart + a.vpart @ g @ b.vpart)


def lift_connection_array(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The curvature terms of the Sasaki connection (see ``tm_nabla``) on (h, v) parts at (x, u).

    ``c[o, a, b]`` is the o-part of the R terms of nabla_{e_a} e_b for the
    lifts of the coordinate vectors, parts 0..n-1 horizontal and n..2n-1
    vertical; ``r`` is ``riemann_at`` at x.
    """
    n = u.size
    h, v = slice(0, n), slice(n, 2 * n)
    c = np.zeros((2 * n,) * 3)
    c[v, h, h] = -0.5 * np.einsum("iabc,c->iab", r, u)  # -1/2 R(e_a, e_b)u
    c[h, h, v] = 0.5 * np.einsum("icba,c->iab", r, u)  # 1/2 R(u, e_b)e_a
    c[h, v, h] = 0.5 * np.einsum("icab,c->iab", r, u)  # 1/2 R(u, e_a)e_b
    return c


def _lift_connection(m: ChartedMetric, at: TMPoint) -> np.ndarray:
    """The read-only ``lift_connection_array`` of chart ``m`` at (x, u), as ``kept_geometry`` builds it."""
    return _read_only(lift_connection_array(base_context(m, at.x).curvature(m)[1], at.u))


def add_lifts(out: np.ndarray, w: np.ndarray, horizontal) -> np.ndarray:
    """Add the base components w to the half of the parts ``out`` that a lift of w fills: the first
    where ``horizontal`` is true, else the second.  w is a vector with a bool kind, or a stack of
    rows (k, n) with kinds of shape (k,) and ``out`` of shape (k, 2n), C-contiguous; returns ``out``."""
    n = w.shape[-1]
    if w.ndim == 1:
        out[slice(None, n) if horizontal else slice(n, None)] += w
    else:
        out.reshape(-1, 2, n)[np.arange(len(w)), np.where(horizontal, 0, 1)] += w
    return out


def lift_rows(w: np.ndarray, horizontal) -> np.ndarray:
    """The parts of lifts holding the base components w as they are, zero in the other half (``add_lifts``)."""
    return add_lifts(np.zeros(w.shape[:-1] + (2 * w.shape[-1],)), w, horizontal)


def contract_lifts(conn: np.ndarray, x: np.ndarray, y: np.ndarray, x_h, y_h) -> np.ndarray:
    """``conn[o, a, b]``, an array on parts, contracted in slots a and b with the lifts A of x and B of y.

    A lift has one nonzero half, its base components: the first half where
    ``x_h`` (``y_h``) is true, the other elsewhere.  x and y are vectors with
    bool kinds, or stacks of rows (k, n) with kinds of shape (k,); each row
    takes the (n, n) block ``conn[:, half(A), half(B)]`` of its own kinds, so
    one call covers all four kind pairs, and contracts it as
    ``(block @ y) @ x``, one matrix-vector product per step (``np.matvec``
    on a stack).  A row of a stack equals its one-row case bit for bit; the
    result is a new array.
    """
    n = x.shape[-1]
    if x.ndim == 1:  # one pair: its block is a view
        return (conn[:, slice(None, n) if x_h else slice(n, None), slice(None, n) if y_h else slice(n, None)] @ y) @ x
    blocks = conn.reshape(-1, 2, n, 2, n)[:, np.where(x_h, 0, 1), :, np.where(y_h, 0, 1), :]
    return np.matvec(np.matvec(blocks, y[:, None, :]), x)


def tm_nabla(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    at: TMPoint,
) -> TMVec:
    """Levi-Civita connection of the Sasaki pseudo-metric on lift fields.

    The ``lift_connection_array`` at (x, u), which the point keeps,
    contracted with the lifts (``contract_lifts``), plus the base connection
    term in B's half when X^h is horizontal (``add_lifts``):

    nabla_{X^v} Y^v = 0
    nabla_{X^v} Y^h = 1/2 h{R(u,X)Y}
    nabla_{X^h} Y^v = (nabla_X Y)^v + 1/2 h{R(u,Y)X}
    nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 v{R(X,Y)u}
    """
    _check_kinds(kind_x, kind_y, allowed=("h", "v"))
    base = base_context(m, at.x)
    xval, yval = field_at(xfield, base.x), field_at(yfield, base.x)
    out = contract_lifts(kept_geometry(m, at, _lift_connection), xval, yval, kind_x == "h", kind_y == "h")
    if kind_x == "h":
        add_lifts(out, base.nabla(m, xval, yfield, yval), kind_y == "h")
    return TMVec.of(at, out)


def lift_bracket(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    at: TMPoint,
) -> TMVec:
    """Lie brackets of lift fields, [A, B] = nabla_A B - nabla_B A (torsion-free).

    [X^h, Y^h] = [X, Y]^h - v{R(X,Y)u},  [X^h, Y^v] = (nabla_X Y)^v,
    [X^v, Y^v] = 0.
    """
    return tm_nabla(m, xfield, yfield, kind_x, kind_y, at) - tm_nabla(m, yfield, xfield, kind_y, kind_x, at)


def almost_complex_J(v: TMVec) -> TMVec:
    """J X^h = X^v, J X^v = -X^h; on pairs: (h, v) -> (-v, h)."""
    return TMVec(v.at, -v.vpart, v.hpart)


def _check_kinds(kind_x: str, kind_y: str, allowed: tuple) -> None:
    if kind_x not in allowed or kind_y not in allowed:
        raise ValueError(f"lift kinds must be in {allowed!r}, got ({kind_x!r}, {kind_y!r})")
