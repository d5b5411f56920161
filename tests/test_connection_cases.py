"""The connection arrays against the case-by-case closed formulas.

Each reference below writes out the closed formula of one kind pair, read
directly from g, Gamma and R of the chart.  ``tm_nabla``, ``lift_bracket``,
``sb_nabla``, ``sb_bracket``, ``nabla_phi`` and ``nabla_xi`` contract one
connection array per point instead; both must agree to rounding, on a space
form and on a generic chart, at both fiber signs.
"""

import numpy as np
import pytest

from sasakigeo.contact import nabla_phi, nabla_xi
from sasakigeo.manifold import SpaceFormSpec, christoffel_at, metric_at, riemann_at, space_form_chart
from sasakigeo.sampling import sample_sb_point, sample_sb_vec
from sasakigeo.sphere import lift, sb_bracket, sb_nabla
from sasakigeo.stencil import FD_STEP_FIRST, jacobian
from sasakigeo.tangent import lift_bracket, tm_nabla

from conftest import bumpy_chart

KINDS_TM = [(kx, ky) for kx in "hv" for ky in "hv"]
KINDS_SB = [(kx, ky) for kx in "ht" for ky in "ht"]

CHARTS = pytest.mark.parametrize(
    "chart,eps",
    [("space form", 1), ("space form", -1), ("generic", 1), ("generic", -1)],
)


def _chart(name):
    return space_form_chart(SpaceFormSpec(3, 1, 2.0)) if name == "space form" else bumpy_chart(3, 1)


def _poly_field(n, rng):
    a0, a1, a2 = rng.normal(size=n), rng.normal(size=(n, n)), 0.5 * rng.normal(size=(n, n, n))
    return lambda x: a0 + a1 @ x + np.einsum("ijk,j,k->i", a2, x, x)


class _Cases:
    """g, Gamma and R at one bundle point, and the case formulas built from them."""

    def __init__(self, m, p):
        self.x, self.u, self.eps = p.x, p.u, p.eps
        self.g = metric_at(m, p.x)
        self.gamma = christoffel_at(m, p.x).gamma
        self.riem = riemann_at(m, p.x)
        self.proj = np.eye(m.dim) - p.eps * np.outer(p.u, self.g @ p.u)

    def R(self, a, b, c):
        return self.riem.apply(a, b, c)

    def nabla(self, xf, yf):
        xv = xf(self.x)
        return jacobian(yf, self.x, FD_STEP_FIRST) @ xv + np.einsum("iab,a,b->i", self.gamma, xv, yf(self.x))

    def gu(self, v):
        return float(v @ self.g @ self.u)

    def tm_nabla(self, xf, yf, kx, ky):
        x, y, u, zero = xf(self.x), yf(self.x), self.u, np.zeros(self.u.size)
        return {
            ("v", "v"): (zero, zero),
            ("v", "h"): (0.5 * self.R(u, x, y), zero),
            ("h", "v"): (0.5 * self.R(u, y, x), self.nabla(xf, yf)),
            ("h", "h"): (self.nabla(xf, yf), -0.5 * self.R(x, y, u)),
        }[kx, ky]

    def lift_bracket(self, xf, yf, kx, ky):
        x, y, u, zero = xf(self.x), yf(self.x), self.u, np.zeros(self.u.size)
        lie = jacobian(yf, self.x, FD_STEP_FIRST) @ x - jacobian(xf, self.x, FD_STEP_FIRST) @ y
        return {
            ("v", "v"): (zero, zero),
            ("h", "v"): (zero, self.nabla(xf, yf)),
            ("v", "h"): (zero, -self.nabla(yf, xf)),
            ("h", "h"): (lie, -self.R(x, y, u)),
        }[kx, ky]

    def sb_nabla(self, xf, yf, kx, ky):
        x, y, u, eps, zero = xf(self.x), yf(self.x), self.u, self.eps, np.zeros(self.u.size)
        h, t = {
            ("t", "t"): (zero, -eps * self.gu(y) * x),
            ("t", "h"): (0.5 * self.R(u, x, y), zero),
            ("h", "t"): (0.5 * self.R(u, y, x), self.nabla(xf, yf)),
            ("h", "h"): (self.nabla(xf, yf), -0.5 * self.R(x, y, u)),
        }[kx, ky]
        return h, self.proj @ t

    def sb_bracket(self, xf, yf, kx, ky):
        x, y, u, eps, zero = xf(self.x), yf(self.x), self.u, self.eps, np.zeros(self.u.size)
        lie = jacobian(yf, self.x, FD_STEP_FIRST) @ x - jacobian(xf, self.x, FD_STEP_FIRST) @ y
        h, t = {
            ("t", "t"): (zero, eps * self.gu(x) * y - eps * self.gu(y) * x),
            ("h", "t"): (zero, self.nabla(xf, yf)),
            ("t", "h"): (zero, -self.nabla(yf, xf)),
            ("h", "h"): (lie, -self.R(x, y, u)),
        }[kx, ky]
        return h, self.proj @ t

    def nabla_phi(self, a, b):
        """The four hand-derived cases, summed over the lift parts of a and b."""
        u, eps, P = self.u, self.eps, self.proj
        xh, wt, yh, zt = a.hpart, a.tpart, b.hpart, b.tpart
        xi = 2.0 * u
        h = 0.5 * self.R(u, xh, yh) + 0.5 * self.R(wt, u, zt) + 2.0 * eps * 0.25 * float(wt @ self.g @ zt) * xi
        t = P @ (0.5 * self.R(xh, u, zt)) + P @ (0.5 * self.R(wt, u, yh)) - eps * self.gu(yh) * (P @ wt)
        return h, t

    def nabla_xi(self, a):
        u = self.u
        return 2.0 * a.tpart - self.R(a.tpart, u, u), -self.R(a.hpart, u, u)


def _assert_close(got, ref):
    ref = np.concatenate(ref)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def _setup(chart, eps, seed):
    rng = np.random.default_rng(seed)
    m = _chart(chart)
    p = sample_sb_point(m, eps, rng)
    return m, p, _Cases(m, p), rng


@CHARTS
def test_tm_nabla_and_lift_bracket_match_the_cases(chart, eps):
    m, p, cases, rng = _setup(chart, eps, 31)
    xf, yf = _poly_field(3, rng), _poly_field(3, rng)
    for kx, ky in KINDS_TM:
        v = tm_nabla(m, xf, yf, kx, ky, p.tm)
        _assert_close(np.concatenate([v.hpart, v.vpart]), cases.tm_nabla(xf, yf, kx, ky))
        v = lift_bracket(m, xf, yf, kx, ky, p.tm)
        _assert_close(np.concatenate([v.hpart, v.vpart]), cases.lift_bracket(xf, yf, kx, ky))


@CHARTS
def test_sb_nabla_and_sb_bracket_match_the_cases(chart, eps):
    m, p, cases, rng = _setup(chart, eps, 32)
    xf, yf = _poly_field(3, rng), _poly_field(3, rng)
    for kx, ky in KINDS_SB:
        _assert_close(sb_nabla(m, xf, yf, kx, ky, p).comps(), cases.sb_nabla(xf, yf, kx, ky))
        _assert_close(sb_bracket(m, xf, yf, kx, ky, p).comps(), cases.sb_bracket(xf, yf, kx, ky))


@CHARTS
def test_nabla_phi_and_nabla_xi_match_the_cases(chart, eps):
    m, p, cases, rng = _setup(chart, eps, 33)
    for ka, kb in KINDS_SB:
        a, b = lift(m, p, ka, rng.normal(size=3)), lift(m, p, kb, rng.normal(size=3))
        _assert_close(nabla_phi(m, p, a, b).comps(), cases.nabla_phi(a, b))
    for _ in range(3):
        a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
        _assert_close(nabla_phi(m, p, a, b).comps(), cases.nabla_phi(a, b))
        _assert_close(nabla_xi(m, p, a).comps(), cases.nabla_xi(a))
