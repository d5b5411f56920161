"""Mutants of the closed forms: each is applied with monkeypatch and names the check that must FAIL.

A check that no wrong closed form can fail shows nothing.  Each mutant
below changes one term and asserts that a named check, whose other side is
a finite-difference oracle, fails at a default configuration.
"""

import numpy as np

from sasakigeo import contact, sphere, tangent
from sasakigeo.suites import SuiteConfig, run_suite

FAST = dict(num_points=2, num_samples=8)


def failing(suite: str) -> set:
    rep = run_suite(SuiteConfig(suite=suite, **FAST))
    return {c.name for c in rep.checks if not c.passed}


def test_halved_curvature_terms_of_the_tm_array(monkeypatch):
    real = tangent.lift_connection_array
    monkeypatch.setattr(tangent, "lift_connection_array", lambda r, u: real(0.5 * r, u))
    assert "tm_nabla = FD Christoffels of Tg on lift fields" in failing("oracle-crosscheck")
    assert "[X^h, Y^h] = [X,Y]^h - v{R(X,Y)u}" in failing("brackets")


def test_flipped_eps_in_the_normal_term(monkeypatch):
    real = sphere.PointGeometry.connection.func

    def flipped(geo):
        n = geo.u.size
        gb = np.array(real(geo))
        gb[n:, n:, n:] *= -1.0  # the (t, t) block is the normal term -eps g(Y, u) X^t alone
        return gb

    monkeypatch.setattr(sphere.PointGeometry, "connection", property(flipped))
    assert "[X^t, Y^t] = eps g(X,u)Y^t - eps g(Y,u)X^t" in failing("brackets")
    assert "sb_nabla = projection of ambient FD derivative" in failing("oracle-crosscheck")


def test_flipped_th_curvature_coefficient_of_nabla_phi(monkeypatch):
    # (nabla_{W^t} phi) Y^h = 1/2 t{R(W, u)Y} - 2 eta(Y^h) W^t, mutated to -1/2 t{R(W, u)Y}
    real = contact.nabla_phi

    def mutant(m, p, a, b):
        geo = sphere.point_geometry(m, p)
        return real(m, p, a, b) - sphere.tangential_lift(m, p, geo.base.riem.apply(a.tpart, p.u, b.hpart))

    monkeypatch.setattr(contact, "nabla_phi", mutant)
    assert "nabla phi = FD ambient derivative" in failing("oracle-crosscheck")
