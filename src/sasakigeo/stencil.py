"""The central-difference stencil behind every numerical derivative.

(f(z + h v) - f(z - h v)) / 2h is exact on quadratics and has O(h^2)
error otherwise.  The module knows no geometry, so the finite-difference
oracle shares it with the closed forms and stays independent of them.
"""

from __future__ import annotations

import numpy as np

FD_STEP_FIRST = 1e-5  # differentiating an analytically evaluated function
FD_STEP_SECOND = 1e-4  # differentiating a function that carries FD noise itself
FD_STEP_GAMMA = 5e-6  # an analytically evaluated Gamma into R: a first-derivative problem


def points(z: np.ndarray, step: float) -> np.ndarray:
    """The stencil around z as 2N rows: z + step e_k, then z - step e_k."""
    z = np.asarray(z, dtype=float)
    d = step * np.eye(z.size)
    return np.concatenate([z + d, z - d])


def quotient(values, step: float) -> np.ndarray:
    """``out[k, ...]`` = (values[k] - values[N + k]) / 2 step for the values of f on ``points``."""
    values = np.asarray(values)
    half = values.shape[0] // 2
    return (values[:half] - values[half:]) / (2.0 * step)


def central_difference(fn, z: np.ndarray, v: np.ndarray, step: float):
    """Derivative of ``fn`` at z along v."""
    d = step * v
    return (np.asarray(fn(z + d)) - np.asarray(fn(z - d))) / (2.0 * step)


def partials(fn, z: np.ndarray, step: float) -> np.ndarray:
    """``out[k, ...] = d_k fn(z)``: the derivative index comes first; ``fn`` is called once per row."""
    return quotient([np.asarray(fn(row)) for row in points(z, step)], step)


def jacobian(fn, z: np.ndarray, step: float) -> np.ndarray:
    """``J[i, j] = d_j fn^i(z)`` of a vector-valued ``fn``, C-contiguous."""
    # a transposed view would round the matrix products it feeds differently
    return np.ascontiguousarray(partials(fn, z, step).T)
