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
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import BasePointMismatch, PointMismatch
from .manifold import ChartedMetric, RiemannTensor, TangentVec, christoffel_at, metric_at, riemann_at
from .stencil import FD_STEP_FIRST, jacobian

VectorField = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, TangentVec]


@dataclass(frozen=True)
class TMPoint:
    """A point (x, u) of TM.

    It keeps one ``BaseGeometry`` per chart it is used with (see
    ``base_geometry``), so x must not be changed in place: build a new
    point instead.
    """

    x: np.ndarray
    u: np.ndarray
    _geometry: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view: a shared context array cannot be written through, and
    the array a chart returned (possibly its own constant) stays writable."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


class BaseGeometry:
    """g, Gamma and R of one chart at the base point of (x, u), and the
    Sasaki connection array at (x, u), each built at most once.

    The arrays are read-only because every closed form at the point shares
    them.  The object holds the chart and the coordinates x and u, never the
    point that keeps it.
    """

    def __init__(self, m: ChartedMetric, at: TMPoint):
        self.m = m
        self.x, self.u = at.x, at.u

    @cached_property
    def g(self) -> np.ndarray:
        return _read_only(metric_at(self.m, self.x))

    @cached_property
    def gamma(self) -> np.ndarray:
        return _read_only(christoffel_at(self.m, self.x).gamma)

    @cached_property
    def riem(self) -> RiemannTensor:
        return RiemannTensor(_read_only(riemann_at(self.m, self.x).r))

    @cached_property
    def connection(self) -> np.ndarray:
        """The ``lift_connection_array`` at (x, u)."""
        return _read_only(lift_connection_array(self.riem.r, self.u))

    def nabla(self, xvec: np.ndarray, yfield: "VectorField") -> np.ndarray:
        """(nabla_X Y)^i = X^a d_a Y^i + Gamma^i_ab X^a Y^b at this base point."""
        yval = field_at(yfield, self.x)
        jac = jacobian(as_field(yfield), self.x, FD_STEP_FIRST)
        return jac @ xvec + np.einsum("iab,a,b->i", self.gamma, xvec, yval)


def kept_geometry(m: ChartedMetric, point, build: Callable):
    """The one ``build(m, point)`` of chart ``m``, kept by the point (charts compared by ``is``)."""
    for chart, geo in point._geometry:
        if chart is m:
            return geo
    geo = build(m, point)
    point._geometry.append((m, geo))
    return geo


def base_geometry(m: ChartedMetric, at: TMPoint) -> BaseGeometry:
    """The one ``BaseGeometry`` of chart ``m`` at ``at``."""
    return kept_geometry(m, at, BaseGeometry)


@dataclass(frozen=True)
class TMVec:
    """X^h + Y^v at a TMPoint, stored as hpart=X, vpart=Y."""

    at: TMPoint
    hpart: np.ndarray
    vpart: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hpart", np.asarray(self.hpart, dtype=float))
        object.__setattr__(self, "vpart", np.asarray(self.vpart, dtype=float))

    def __add__(self, other: "TMVec") -> "TMVec":
        require_same_tm_point(self, other)
        return TMVec(self.at, self.hpart + other.hpart, self.vpart + other.vpart)

    def __sub__(self, other: "TMVec") -> "TMVec":
        return self + (-1.0) * other

    def __rmul__(self, s: float) -> "TMVec":
        return TMVec(self.at, s * self.hpart, s * self.vpart)

    def __neg__(self) -> "TMVec":
        return TMVec(self.at, -self.hpart, -self.vpart)


def require_same_tm_point(a: TMVec, b: TMVec) -> None:
    if not (
        np.allclose(a.at.x, b.at.x, atol=1e-12) and np.allclose(a.at.u, b.at.u, atol=1e-12)
    ):
        raise PointMismatch("TM vectors live at different bundle points")


def as_field(field: VectorField) -> Callable[[np.ndarray], np.ndarray]:
    """Accept a callable field, a TangentVec, or a constant component vector."""
    if callable(field):
        return field
    if isinstance(field, TangentVec):
        const = field.comps
    else:
        const = np.asarray(field, dtype=float)
    return lambda x: const


def field_at(field: VectorField, x: np.ndarray) -> np.ndarray:
    return np.asarray(as_field(field)(np.asarray(x, dtype=float)), dtype=float)


def horizontal_lift(m: ChartedMetric, xvec: TangentVec, at: TMPoint) -> TMVec:
    if not np.allclose(xvec.base, at.x, atol=1e-12):
        raise BasePointMismatch("vector is not based at the bundle point's base")
    return TMVec(at, xvec.comps, np.zeros(m.dim))


def vertical_lift(m: ChartedMetric, xvec: TangentVec, at: TMPoint) -> TMVec:
    if not np.allclose(xvec.base, at.x, atol=1e-12):
        raise BasePointMismatch("vector is not based at the bundle point's base")
    return TMVec(at, np.zeros(m.dim), xvec.comps)


def to_induced_coords(m: ChartedMetric, v: TMVec) -> np.ndarray:
    """Components in the induced chart (x^i; u^i) of TM."""
    du = v.vpart - np.einsum("iab,a,b->i", base_geometry(m, v.at).gamma, v.hpart, v.at.u)
    return np.concatenate([v.hpart, du])


def from_induced_coords(m: ChartedMetric, at: TMPoint, w: np.ndarray) -> TMVec:
    w = np.asarray(w, dtype=float)
    n = m.dim
    hpart = w[:n]
    vpart = w[n:] + np.einsum("iab,a,b->i", base_geometry(m, at).gamma, hpart, at.u)
    return TMVec(at, hpart, vpart)


def project(v: TMVec) -> tuple[TangentVec, TangentVec]:
    """(pi_* v, K v): differential of the projection and the connection map."""
    return TangentVec(v.at.x, v.hpart), TangentVec(v.at.x, v.vpart)


def sasaki_metric_at(m: ChartedMetric, at: TMPoint, a: TMVec, b: TMVec) -> float:
    """Tg(a, b) = g(a_h, b_h) + g(a_v, b_v) evaluated at pi(at)."""
    require_same_tm_point(a, b)
    g = base_geometry(m, at).g
    return float(a.hpart @ g @ b.hpart + a.vpart @ g @ b.vpart)


def lift_connection_array(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The curvature terms of the Sasaki connection (see ``tm_nabla``) on (h, v) parts at (x, u).

    ``c[o, a, b]`` is the o-part of the R terms of nabla_{e_a} e_b for the
    lifts of the coordinate vectors, parts 0..n-1 horizontal and n..2n-1
    vertical; ``r`` holds the ``RiemannTensor`` components.
    """
    n = u.size
    h, v = slice(0, n), slice(n, 2 * n)
    c = np.zeros((2 * n,) * 3)
    c[v, h, h] = -0.5 * np.einsum("icab,c->iab", r, u)  # -1/2 R(e_a, e_b)u
    c[h, h, v] = 0.5 * np.einsum("iacb,c->iab", r, u)  # 1/2 R(u, e_b)e_a
    c[h, v, h] = 0.5 * np.einsum("ibca,c->iab", r, u)  # 1/2 R(u, e_a)e_b
    return c


def _lift_parts(kind: str, w: np.ndarray) -> np.ndarray:
    """The 2n parts of the lift of w: w in the horizontal slot for kind 'h', else the other."""
    zero = np.zeros_like(w)
    return np.concatenate([w, zero] if kind == "h" else [zero, w])


def _nabla_parts(conn: np.ndarray, base: BaseGeometry, xfield, yfield, kind_x: str, kind_y: str) -> np.ndarray:
    """``conn`` contracted with the lifts A and B, plus (nabla_X Y) in B's slot when A = X^h."""
    xval = field_at(xfield, base.x)
    out = (conn @ _lift_parts(kind_y, field_at(yfield, base.x))) @ _lift_parts(kind_x, xval)
    if kind_x == "h":
        out = out + _lift_parts(kind_y, base.nabla(xval, yfield))
    return out


def tm_nabla(
    m: ChartedMetric,
    xfield: VectorField,
    yfield: VectorField,
    kind_x: str,
    kind_y: str,
    at: TMPoint,
) -> TMVec:
    """Levi-Civita connection of the Sasaki pseudo-metric on lift fields.

    ``BaseGeometry.connection`` contracted with the lifts, plus the base
    connection term when X^h is horizontal:

    nabla_{X^v} Y^v = 0
    nabla_{X^v} Y^h = 1/2 h{R(u,X)Y}
    nabla_{X^h} Y^v = (nabla_X Y)^v + 1/2 h{R(u,Y)X}
    nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 v{R(X,Y)u}
    """
    _check_kinds(kind_x, kind_y, allowed=("h", "v"))
    base = base_geometry(m, at)
    out = _nabla_parts(base.connection, base, xfield, yfield, kind_x, kind_y)
    return TMVec(at, out[: m.dim], out[m.dim :])


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
