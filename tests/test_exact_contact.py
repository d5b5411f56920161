"""Exact certificate of the contact structure on T_eps M, in rational arithmetic.

At n = 2 on the space-form chart g = diag(s) / F^2, F = 1 + (c/4) sum_k s_k x_k^2,
with c rational, every tensor is built with sympy from its definition in the
induced coordinates z = (x, y) of TM and evaluated at a rational point (x0, u0)
of T_eps M:

    C^i_j = Gamma^i_jk y^k,   X^h = (X, -C X),   X^v = (0, X),   N = (0, y),
    Tg = [[g + C^T g C, C^T g], [g C, g]]   (the Sasaki metric),   g_cm = Tg / 4,
    xi = 2 y^h,   eta = (eps/2) g(x) y . dx,
    phi' (X^h) = X^t,  phi' (X^v) = -X^h + eps g(X, y) y^h  (so phi' (N) = 0),
    phi = eps phi',   h = (1/2) L_xi phi,

with X^t = X^v - eps g(X, y) N.  The contact identities d eta = g_cm(., phi .),
h phi + phi h = 0 and nabla-bar xi = -eps phi - phi h, with nabla-bar the
tangential part of the Levi-Civita connection of Tg, must hold exactly on
T_eps M, and h has the spectrum {c - eps, eps - c, 0} there.  At eps = +1,
phi = phi'; at eps = -1 only eps phi' satisfies d eta = g_cm(., phi .) and
nabla-bar xi = -eps phi - phi h (phi' fails both).

The library's float ``phi_parts`` and ``h_parts`` must agree with the exact
phi and h.  That is asserted on the eps = +1 cases only: the library builds
phi' at eps = -1, a program fault (the eps = -1 fix of the roadmap), so its
``phi_parts`` is -phi there and its ``h_parts`` is not (1/2) L_xi phi.

d eta(A, B) = (1/2)[A(eta(B)) - B(eta(A)) - eta([A, B])], the library's normalization.
Every configuration is a case of ``CASES``.  No derivative is a finite difference.
"""

from functools import cache

import numpy as np
import pytest
import sympy as sp

from sasakigeo.manifold import SpaceFormSpec, space_form_chart
from sasakigeo.sphere import point_geometry, sb_point

R = sp.Rational
X0 = (R(1, 5), R(1, 7))
# u0 = F(x0) * direction, a unit vector of the flat metric diag(s), so g(u0, u0) = eps
DIRECTION = {(0, 1): (R(3, 5), R(4, 5)), (1, 1): (R(3, 4), R(5, 4)), (1, -1): (R(5, 4), R(3, 4))}
CASES = [(0, 1, R(2)), (0, 1, R(1)), (1, 1, R(3)), (1, 1, R(1)), (1, -1, R(2)), (1, -1, R(-1))]  # (nu, eps, c)


def _case_id(case) -> str:
    return f"nu={case[0]},eps={case[1]:+d},c={case[2]}"


def _derivatives(expr: sp.Matrix, z: list, point: dict) -> list:
    """[d expr / d z_k at the point for each k]."""
    return [expr.diff(zk).xreplace(point) for zk in z]


def _christoffel(ginv: sp.Matrix, dg: list) -> list:
    """Gamma[i][j][k] = (1/2) g^il (d_j g_lk + d_k g_lj - d_l g_jk), with dg[j] = d_j g."""
    r = range(ginv.shape[0])
    return [[[sum(ginv[i, l] * (dg[j][l, k] + dg[k][l, j] - dg[l][j, k]) for l in r) / 2 for k in r] for j in r] for i in r]


@cache
def exact_structure(nu: int, eps: int, c: sp.Rational) -> dict:
    x = sp.Matrix(sp.symbols("x0 x1"))
    y = sp.Matrix(sp.symbols("y0 y1"))
    z = list(x) + list(y)
    s = [-1] * nu + [1] * (2 - nu)
    f = 1 + c / 4 * sum(s[k] * x[k] ** 2 for k in range(2))
    g = sp.diag(*s) / f**2
    gamma = _christoffel(sp.diag(*s) * f**2, [g.diff(xj) for xj in x])
    cmat = sp.Matrix(2, 2, lambda i, j: sum(gamma[i][j][k] * y[k] for k in range(2)))
    hor = sp.Matrix.vstack(sp.eye(2), -cmat)  # columns e_i^h
    ver = sp.Matrix.vstack(sp.zeros(2), sp.eye(2))  # columns e_i^v
    normal = sp.Matrix.vstack(sp.zeros(2, 1), y)
    gy = g * y
    tg = sp.Matrix(sp.BlockMatrix([[g + cmat.T * g * cmat, cmat.T * g], [g * cmat, g]]))
    xi = 2 * hor * y
    eta = sp.Matrix.vstack(sp.Rational(eps, 2) * gy, sp.zeros(2, 1))
    phi_hor = ver - eps * normal * gy.T  # phi(e_i^h) = e_i^t
    phi_ver = -hor + eps * (hor * y) * gy.T  # phi(e_i^v) = phi(e_i^t)
    phi = eps * sp.Matrix.hstack(phi_hor, phi_ver) * sp.Matrix.hstack(hor, ver).inv()

    u0 = f.xreplace(dict(zip(x, X0))) * sp.Matrix(DIRECTION[(nu, eps)])
    point = dict(zip(z, list(X0) + list(u0)))
    tg0, xi0, phi0, normal0 = (e.xreplace(point) for e in (tg, xi, phi, normal))
    d_phi = _derivatives(phi, z, point)
    d_xi = sp.Matrix.hstack(*_derivatives(xi, z, point))  # d_xi[i, k] = d_k xi^i
    d_eta = sp.Matrix.hstack(*_derivatives(eta, z, point)).T  # d_eta[j, k] = d_j eta_k
    gamma_tg = _christoffel(tg0.inv(), _derivatives(tg, z, point))
    xi_dphi = sum((xi0[k] * d_phi[k] for k in range(4)), sp.zeros(4))
    h0 = (xi_dphi - d_xi * phi0 + phi0 * d_xi) / 2  # (1/2) L_xi phi
    # nabla-tilde_{e_j} xi = d_j xi + Gamma-tilde(e_j, xi); its tangential part drops eps Tg(., N) N
    nabla_xi = sp.Matrix(4, 4, lambda i, j: d_xi[i, j] + sum(gamma_tg[i][j][k] * xi0[k] for k in range(4)))
    nabla_bar_xi = nabla_xi - eps * normal0 * (normal0.T * tg0 * nabla_xi)

    c0 = cmat.xreplace(point)
    w = sp.Matrix([s[1] * u0[1], -s[0] * u0[0]])  # g-orthogonal to u0
    parts = sp.Matrix.hstack(  # (h, t) parts of a basis of T(T_eps M): e_1^h, e_2^h, w^t
        sp.Matrix.vstack(sp.eye(2), sp.zeros(2)), sp.Matrix.vstack(sp.zeros(2, 1), w)
    )
    to_induced = sp.Matrix(sp.BlockMatrix([[sp.eye(2), sp.zeros(2)], [-c0, sp.eye(2)]]))
    return {
        "nu": nu,
        "eps": eps,
        "c": c,
        "point": ([float(v) for v in X0], [float(v) for v in u0]),
        "tg": tg0,
        "normal": normal0,
        "phi": phi0,
        "h": h0,
        "d_eta": (d_eta - d_eta.T) / 2,
        "nabla_bar_xi": nabla_bar_xi,
        "parts": parts,
        "to_induced": to_induced,
        "basis": to_induced * parts,
    }


def _is_zero(mat: sp.Matrix) -> bool:
    """Every entry is exactly 0 (the entries are evaluated rationals, so no simplification is needed)."""
    return all(e == 0 for e in mat)


@pytest.fixture(params=CASES, ids=_case_id)
def exact(request):
    return exact_structure(*request.param)


def test_the_basis_spans_the_tangent_space_of_the_sphere_bundle(exact):
    basis, normal, tg = exact["basis"], exact["normal"], exact["tg"]
    assert (normal.T * tg * normal)[0, 0] == exact["eps"]  # Tg(N, N) = g(u0, u0) = eps
    assert _is_zero(normal.T * tg * basis) and basis.rank() == 3


def test_d_eta_is_g_cm_of_phi(exact):
    basis = exact["basis"]
    assert _is_zero(basis.T * (exact["d_eta"] - exact["tg"] * exact["phi"] / 4) * basis)


def test_h_anticommutes_with_phi(exact):
    phi, h = exact["phi"], exact["h"]
    assert _is_zero((h * phi + phi * h) * exact["basis"])


def test_nabla_xi_is_minus_eps_phi_minus_phi_h(exact):
    phi, h, eps = exact["phi"], exact["h"], exact["eps"]
    assert _is_zero((exact["nabla_bar_xi"] + eps * phi + phi * h) * exact["basis"])


def test_h_spectrum_on_the_tangent_space(exact):
    basis, h, eps, c = exact["basis"], exact["h"], exact["eps"], exact["c"]
    h_tangent = (basis.T * basis).inv() * basis.T * h * basis
    assert _is_zero(basis * h_tangent - h * basis)  # h maps T(T_eps M) into itself
    lam = sp.Symbol("lam")
    assert sp.expand(h_tangent.charpoly(lam).as_expr() - lam * (lam - (c - eps)) * (lam + (c - eps))) == 0


@pytest.mark.parametrize("case", [case for case in CASES if case[1] == 1], ids=_case_id)
def test_library_phi_and_h_match_the_exact_tensors(case):
    exact = exact_structure(*case)
    x0, u0 = exact["point"]
    m = space_form_chart(SpaceFormSpec(2, exact["nu"], float(exact["c"])))
    geo = point_geometry(m, sb_point(m, np.array(x0), np.array(u0), exact["eps"]))
    parts = np.array(exact["parts"], dtype=float)
    from_induced = exact["to_induced"].inv()
    for name, lib in (("phi", geo.phi_parts), ("h", geo.h_parts)):
        want = np.array(from_induced * exact[name] * exact["basis"], dtype=float)
        assert np.abs(lib @ parts - want).max() <= 1e-12, name
