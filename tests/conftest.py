"""Shared fixtures: charts and deterministic generators."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from sasakigeo.manifold import ChartedMetric, SpaceFormSpec, space_form_chart

# child processes (``python -m sasakigeo``) import this tree's package, as pytest's own ``pythonpath`` does
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def flat_chart(n=2, nu=0):
    signs = np.array([-1.0] * nu + [1.0] * (n - nu))
    eps_diag = np.diag(signs)
    zeros1 = np.zeros((n, n, n))
    zeros2 = np.zeros((n, n, n, n))
    return ChartedMetric(
        dim=n,
        index=nu,
        metric_fn=lambda x: eps_diag,
        deriv1_fn=lambda x: zeros1,
        deriv2_fn=lambda x: zeros2,
        locally_symmetric=True,
        name=f"flat(n={n},nu={nu})",
    )


def bumpy_chart(n=2, nu=0, seed=0, amp=0.12):
    """A generic analytic metric: exponential diagonal plus sine off-diagonal.

    Not locally symmetric, so it exercises the nabla-R terms of the
    sphere-bundle curvature and the second-Bianchi check.
    """
    rng = np.random.default_rng(seed)
    signs = np.array([-1.0] * nu + [1.0] * (n - nu))
    lin = 0.3 * rng.normal(size=(n, n))  # f_i = lin_i . x + 0.5 x^T quad_i x
    quad = 0.3 * rng.normal(size=(n, n, n))
    quad = 0.5 * (quad + np.swapaxes(quad, 1, 2))
    wave_k = rng.normal(size=(n, n, n))
    wave_k = 0.5 * (wave_k + np.swapaxes(wave_k, 0, 1))
    phase = rng.uniform(0, 2 * np.pi, size=(n, n))
    phase = 0.5 * (phase + phase.T)

    def f(x):
        return lin @ x + 0.5 * np.einsum("ijk,j,k->i", quad, x, x)

    def df(x):
        return lin + np.einsum("ijk,k->ij", quad, x)  # df[i, k] = d_k f_i

    def offdiag(x):
        s = np.einsum("ijk,k->ij", wave_k, x) + phase
        p = amp * np.sin(s)
        np.fill_diagonal(p, 0.0)
        return 0.5 * (p + p.T)

    def metric_fn(x):
        return np.diag(signs * np.exp(2.0 * f(x))) + offdiag(x)

    def deriv1_fn(x):
        d = signs * np.exp(2.0 * f(x))
        jf = df(x)
        out = np.zeros((n, n, n))
        s = np.einsum("ijk,k->ij", wave_k, x) + phase
        dp = amp * np.cos(s)
        for k in range(n):
            dg = np.diag(2.0 * d * jf[:, k])
            pk = dp * wave_k[:, :, k]
            np.fill_diagonal(pk, 0.0)
            out[k] = dg + 0.5 * (pk + pk.T)
        return out

    def deriv2_fn(x):
        d = signs * np.exp(2.0 * f(x))
        jf = df(x)
        s = np.einsum("ijk,k->ij", wave_k, x) + phase
        out = np.zeros((n, n, n, n))
        for k in range(n):
            for l in range(n):
                diag_kl = 2.0 * d * (2.0 * jf[:, k] * jf[:, l] + quad[:, k, l])
                pkl = -amp * np.sin(s) * wave_k[:, :, k] * wave_k[:, :, l]
                np.fill_diagonal(pkl, 0.0)
                out[k, l] = np.diag(diag_kl) + 0.5 * (pkl + pkl.T)
        return out

    m = ChartedMetric(
        dim=n,
        index=nu,
        metric_fn=metric_fn,
        deriv1_fn=deriv1_fn,
        deriv2_fn=deriv2_fn,
        domain_fn=lambda x: bool(np.all(np.abs(x) < 0.45)),
        name=f"bumpy(n={n},nu={nu},seed={seed})",
    )
    # the perturbation must not change the signature anywhere we sample
    probe = np.random.default_rng(123)
    for _ in range(25):
        x = probe.uniform(-0.4, 0.4, size=n)
        eig = np.linalg.eigvalsh(metric_fn(x))
        assert int((eig < 0).sum()) == nu
    return m


def nan_on_call(fn, k):
    """``fn`` whose k-th call (counting from 1) returns NaN times its result."""
    calls = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(None)
        return float("nan") * out if len(calls) == k else out

    return wrapped


def patch_everywhere(monkeypatch, fn, replacement):
    """Bind ``replacement`` under every name a loaded sasakigeo module holds ``fn`` by."""
    for name, mod in list(sys.modules.items()):
        if name == "sasakigeo" or name.startswith("sasakigeo."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def sphere2():
    return space_form_chart(SpaceFormSpec(2, 0, 1.0))


@pytest.fixture
def flat2():
    return flat_chart(2, 0)


@pytest.fixture
def lorentz3():
    return space_form_chart(SpaceFormSpec(3, 1, -1.0))
