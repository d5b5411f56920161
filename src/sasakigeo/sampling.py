"""Deterministic seeded sampling of points, fibers and bundle vectors.

All randomness flows through ``numpy.random.Generator`` objects derived from
an explicit seed, with per-index spawning so serial and parallel evaluation
orders produce identical samples.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SamplingFailure
from .manifold import ChartedMetric, base_context, gram_scale, plane_gram
from .sphere import SBPoint, SBVec, point_geometry, sb_point

SAMPLE_BOX = 0.55  # chart points are drawn from [-box, box]^n, then domain-filtered
PLANE_GRAM_MIN = 1e-3  # |Gram determinant| / gram_scale(g) a sampled tangent plane must exceed
FIBER_NORM_MAX = 3.0  # ||u|| cap of a sampled fiber vector
BASE_POINT_TRIES = 100  # base points x that ``sample_sb_point`` draws before it gives up


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Child generator for a sample index; deterministic in (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def sample_domain_point(m: ChartedMetric, rng: np.random.Generator, box: float = SAMPLE_BOX) -> np.ndarray:
    for _ in range(1000):
        x = rng.uniform(-box, box, size=m.dim)
        if m.domain_fn(x):
            return x
    raise SamplingFailure(f"could not sample an in-domain point of {m.name!r}")


def sample_tangent_plane(m: ChartedMetric, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Components of two tangent vectors spanning a decisively nondegenerate plane."""
    g = base_context(m, x).g
    floor = PLANE_GRAM_MIN * gram_scale(g)
    for _ in range(200):
        xv = rng.normal(size=m.dim)
        yv = rng.normal(size=m.dim)
        if abs(plane_gram(g, xv, yv)) > floor:
            return xv, yv
    raise SamplingFailure("could not sample a nondegenerate tangent plane")


def sample_fiber_vector(m: ChartedMetric, x: np.ndarray, eps: int, rng: np.random.Generator) -> np.ndarray:
    """Random u with g(u, u) = eps: rejection on |g(u,u)| < 0.1 and sign, then scaling.

    The pseudo-spheres are noncompact; vectors rescaled to ||u|| > FIBER_NORM_MAX
    are rejected to keep finite-difference truncation well-conditioned.
    """
    g = base_context(m, x).g
    for _ in range(1000):
        u = rng.normal(size=m.dim)
        q = float(u @ g @ u)
        if abs(q) < 0.1 or q * eps < 0.0:  # |q| >= 0.1, so q * eps < 0 is sign(q) != eps
            continue
        u = u / np.sqrt(abs(q))
        if math.sqrt(u @ u) > FIBER_NORM_MAX:
            continue
        return u
    raise SamplingFailure(f"could not sample a fiber vector with sign {eps}")


def sample_sb_point(m: ChartedMetric, eps: int, rng: np.random.Generator) -> SBPoint:
    """x, then u at x; an x where ``sample_fiber_vector`` finds no u is replaced by a new draw."""
    if m.index == (0 if eps == -1 else m.dim):  # no x has a u with g(u, u) of this sign
        raise SamplingFailure(f"a metric of index {m.index} has no fiber vector with sign {eps}")
    for _ in range(BASE_POINT_TRIES):
        x = sample_domain_point(m, rng)
        try:
            u = sample_fiber_vector(m, x, eps, rng)
        except SamplingFailure:
            continue
        return sb_point(m, x, u, eps)
    raise SamplingFailure(f"could not sample a bundle point with sign {eps} in {BASE_POINT_TRIES} base points")


def sample_sb_parts(m: ChartedMetric, p: SBPoint, rng: np.random.Generator, count: int) -> np.ndarray:
    """The (h, t) parts of ``count`` random tangent vectors of T_eps M as the rows of one (count, 2n) array.

    All 2n * count normals come from one ``rng.normal`` call: it fills in C
    order, so row k holds the h and then the t draw of the k-th of ``count``
    sequential ``sample_sb_vec`` calls, and the generator ends in the same
    state.  The t parts are canonicalized by ``PointGeometry.tangential_part``
    row by row, so row k equals that call's parts bit for bit:
    ``sample_sb_vec`` is the one-row case.
    """
    n = m.dim
    draws = rng.normal(size=(count, 2 * n))
    draws[:, n:] = point_geometry(m, p).tangential_part(draws[:, n:])
    return draws


def sample_sb_vec(m: ChartedMetric, p: SBPoint, rng: np.random.Generator) -> SBVec:
    """Random tangent vector of T_eps M (tangential part canonicalized): one row of ``sample_sb_parts``."""
    return SBVec.of(p, sample_sb_parts(m, p, rng, 1)[0])


def sample_ker_eta_parts(m: ChartedMetric, p: SBPoint, rng: np.random.Generator, count: int) -> np.ndarray:
    """The (h, t) parts of ``count`` random vectors in ker eta as the rows of one (count, 2n) array.

    All 2n * count normals come from one ``rng.normal`` call of shape
    (2 count, n), which fills in C order: row k holds the draw of the k-th
    of ``count`` sequential ``sample_ker_eta_vec`` calls, and the generator
    ends in the same state.  Both parts of each row are made g-orthogonal to
    u, the horizontal one as well, by one ``PointGeometry.tangential_part``
    on the stack, so row k equals that call's parts bit for bit:
    ``sample_ker_eta_vec`` is the one-row case.
    """
    n = m.dim
    return point_geometry(m, p).tangential_part(rng.normal(size=(2 * count, n))).reshape(count, 2 * n)


def sample_ker_eta_vec(m: ChartedMetric, p: SBPoint, rng: np.random.Generator) -> SBVec:
    """Random vector in ker eta: one row of ``sample_ker_eta_parts``."""
    return SBVec.of(p, sample_ker_eta_parts(m, p, rng, 1).ravel())

