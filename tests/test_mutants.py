"""Mutants of the closed forms: each is applied with monkeypatch and names the check that must FAIL.

A check that no wrong closed form can fail shows nothing.  Each mutant
below changes one term and asserts that a named check, whose other side is
a finite-difference oracle, fails at a default configuration or at
``TIMELIKE`` (n = 3, nu = 1, c = 2, eps = -1); at the default c = eps = 1
the dropped commutator and the negated h block pass every check.
"""

from dataclasses import replace

import numpy as np

from sasakigeo import contact, oracle, sphere, tangent
from sasakigeo.suites import SuiteConfig, run_suite

FAST = dict(num_points=2, num_samples=8)
TIMELIKE = dict(n=3, nu=1, c=2.0, eps=-1)
# every check a mutant below must fail, with its suite and configuration; unmutated, each passes
KILLING_CHECKS = [
    ("oracle-crosscheck", {}, "tm_nabla = FD Christoffels of Tg on lift fields"),
    ("brackets", {}, "[X^h, Y^h] = [X,Y]^h - v{R(X,Y)u}"),
    ("brackets", {}, "[X^t, Y^t] = eps g(X,u)Y^t - eps g(Y,u)X^t"),
    ("oracle-crosscheck", {}, "nabla phi = FD ambient derivative"),
    ("oracle-crosscheck", TIMELIKE, "second fundamental form symmetric"),
    ("oracle-crosscheck", TIMELIKE, "sb_curvature = Gauss-equation oracle"),
    ("axioms", dict(TIMELIKE, eps=1), "d eta = g_cm(., phi .)"),
    ("oracle-crosscheck", TIMELIKE, "nabla phi = FD ambient derivative"),
    ("curvature", TIMELIKE, "R-bar pair symmetry"),
    ("kappa-mu", TIMELIKE, "(kappa,mu)-nullity residual"),
    ("kappa-mu", TIMELIKE, "h eigenvalues = {2 - eps(1+c), eps(c-1), 0}"),
    ("connection", TIMELIKE, "nabla xi = -eps phi - phi h"),
    ("index", TIMELIKE, "frame Gram diagonal = +-1"),
    ("connection", {}, "tm_nabla metric compatibility (FD)"),
    ("connection", TIMELIKE, "tm_nabla metric compatibility (FD)"),
    ("connection", {}, "sb_nabla metric compatibility (FD)"),
    ("connection", TIMELIKE, "sb_nabla metric compatibility (FD)"),
    ("connection", {}, "sb_nabla = projected ambient derivative"),
]


def failing(suite: str, **config) -> set:
    rep = run_suite(SuiteConfig(suite=suite, **FAST, **config))
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
    assert "sb_nabla = projected ambient derivative" in failing("connection")


# a skew change of nabla_A keeps it metric-compatible; 0.1 I in the (o, b) slots of one block,
# nabla_{e_a^h} e_b += 0.1 e_b there for every a, is symmetric and must break compatibility
def test_symmetric_vhv_block_of_the_tm_array(monkeypatch):
    real = tangent.lift_connection_array

    def mutant(r, u):
        n = u.size
        c = real(r, u)
        c[n:, :n, n:] += 0.1 * np.eye(n)[:, None, :]
        return c

    monkeypatch.setattr(tangent, "lift_connection_array", mutant)
    for config in ({}, TIMELIKE):
        assert "tm_nabla metric compatibility (FD)" in failing("connection", **config)


def test_symmetric_tht_block_of_the_sb_array(monkeypatch):
    real = sphere.PointGeometry.connection.func

    def mutant(geo):
        n = geo.u.size
        gb = np.array(real(geo))
        gb[n:, :n, n:] += 0.1 * np.eye(n)[:, None, :]
        return gb

    monkeypatch.setattr(sphere.PointGeometry, "connection", property(mutant))
    for config in ({}, TIMELIKE):
        assert "sb_nabla metric compatibility (FD)" in failing("connection", **config)


def test_flipped_th_curvature_coefficient_of_nabla_phi(monkeypatch):
    # (nabla_{W^t} phi) Y^h = 1/2 t{R(W, u)Y} - 2 eta(Y^h) W^t, mutated to -1/2 t{R(W, u)Y}, in the tensor
    # N that ``nabla_phi`` and the suites' stacked rows contract: its (t, t, h) block loses P R(W, u)Y
    real = sphere.PointGeometry.nabla_phi_parts.func

    def mutant(geo):
        n = geo.u.size
        out = np.array(real(geo))
        r_wuy = np.einsum("iabc,b->iac", geo.base.curvature(geo.m)[1], geo.u)  # [i, a, c]: R(e_a, u)e_c
        out[n:, n:, :n] -= (geo.proj @ r_wuy.reshape(n, -1)).reshape(n, n, n)
        return out

    monkeypatch.setattr(sphere.PointGeometry, "nabla_phi_parts", property(mutant))
    assert "nabla phi = FD ambient derivative" in failing("oracle-crosscheck")


def test_halved_koszul_factor_of_the_oracle(monkeypatch):
    # the oracle's own Christoffel symbols, of the base and of Tg, halved; the closed forms are untouched
    real = oracle._koszul
    monkeypatch.setattr(oracle, "_koszul", lambda g, dg: 0.5 * real(g, dg))
    killed = failing("oracle-crosscheck", **TIMELIKE)
    assert {"second fundamental form symmetric", "sb_curvature = Gauss-equation oracle"} <= killed


def test_dropped_second_weingarten_term_of_the_oracle_rbar(monkeypatch):
    # the oracle's R-bar(A, B)C without its + II(A, C) nabla-tilde_B N term; the closed forms are untouched.
    # R-bar pulls R-tilde - II(B, C) W A + II(A, C) W B back to parts linearly, so the term is taken off R-tilde
    real = oracle.GaussOracle.r_tilde.func

    def mutant(gauss):
        # w[:, b] = nabla-tilde_{e_b} N and ii[c, a] = II(e_a, e_c)
        return real(gauss) - np.einsum("ib,ca->iabc", gauss.w, gauss.ii)

    monkeypatch.setattr(oracle.GaussOracle, "r_tilde", property(mutant))
    assert "sb_curvature = Gauss-equation oracle" in failing("oracle-crosscheck", **TIMELIKE)


def test_perturbed_entry_of_the_oracle_nabla_array(monkeypatch):
    # one entry of the oracle's nabla-bar of basis lifts, nabla-bar_{e_1^h} e_1^h, off by 1e-6 in its first h slot
    real = oracle.GaussOracle.nabla.func

    def mutant(gauss):
        nabla = np.array(real(gauss))
        nabla[0, 0, 0] += 1e-6
        return nabla

    monkeypatch.setattr(oracle.GaussOracle, "nabla", property(mutant))
    assert "sb_nabla = projected ambient derivative" in failing("connection")


def test_flipped_eps_in_the_tangential_lift(monkeypatch):
    # X^t = X^v + eps g(X, u) N instead of X^v - eps g(X, u) N, in the one projection that every
    # closed tangential lift reads, stacked (the lift pairs, the samplers) or one at a time
    def flipped(geo, x):
        return x + (x[..., None, :] @ geo.gu) * geo.eps_u

    monkeypatch.setattr(sphere.PointGeometry, "tangential_part", flipped)
    # the d eta axiom fails unmutated at eps = -1 (by a sign), so it is asserted at eps = +1
    assert "d eta = g_cm(., phi .)" in failing("axioms", **dict(TIMELIKE, eps=1))
    assert "nabla phi = FD ambient derivative" in failing("oracle-crosscheck", **TIMELIKE)


def test_dropped_commutator_of_the_htth_curvature_block(monkeypatch):
    # R-bar(X^t, Y^t)Z^h without its 1/4 (R(u, X)R(u, Y) - R(u, Y)R(u, X))Z term
    real = sphere.sb_curvature_array

    def mutant(geo):
        n = geo.u.size
        ru = np.einsum("iabc,a->ibc", geo.base.curvature(geo.m)[1], geo.u)
        rb = real(geo)
        rb[:n, n:, n:, :n] -= 0.25 * (np.einsum("oam,mbc->oabc", ru, ru) - np.einsum("obm,mac->oabc", ru, ru))
        return rb

    monkeypatch.setattr(sphere, "sb_curvature_array", mutant)
    assert "sb_curvature = Gauss-equation oracle" in failing("oracle-crosscheck", **TIMELIKE)
    assert "R-bar pair symmetry" in failing("curvature", **TIMELIKE)


def test_shifted_mu_of_the_space_form(monkeypatch):
    real = contact.kappa_mu_for_space_form
    monkeypatch.setattr(contact, "kappa_mu_for_space_form", lambda c, eps: replace(real(c, eps), mu=real(c, eps).mu + 0.1))
    assert "(kappa,mu)-nullity residual" in failing("kappa-mu", **TIMELIKE)


def test_negated_horizontal_block_of_h(monkeypatch):
    real = sphere.PointGeometry.h_parts.func

    def negated(geo):
        n = geo.u.size
        hmat = np.array(real(geo))
        hmat[:n, :n] *= -1.0
        return hmat

    monkeypatch.setattr(sphere.PointGeometry, "h_parts", property(negated))
    assert "h eigenvalues = {2 - eps(1+c), eps(c-1), 0}" in failing("kappa-mu", **TIMELIKE)
    assert "nabla xi = -eps phi - phi h" in failing("connection", **TIMELIKE)


def test_doubled_frame_vectors(monkeypatch):
    real = sphere.PointGeometry.base_frame.func

    def doubled(geo):
        es, signs = real(geo)
        return tuple(2.0 * e for e in es), signs

    monkeypatch.setattr(sphere.PointGeometry, "base_frame", property(doubled))
    assert "frame Gram diagonal = +-1" in failing("index", **TIMELIKE)


def test_every_killing_check_passes_unmutated():
    # a check that already fails unmutated would kill every mutant and show nothing
    for suite, config, check in KILLING_CHECKS:
        assert check not in failing(suite, **config), (suite, config, check)
