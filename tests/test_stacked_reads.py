"""Chart callables and test fields that take stacks of points, and the reads that use them.

A callable declared by ``stencil.takes_stacks`` takes a stack (..., n) and
returns its values stacked in the same leading shape, each row equal to its
one-point call bit for bit; ``stencil.rows`` calls it once per stack and an
undeclared callable once per row.  The space form's four chart callables and
the suites' polynomial test fields are declared.  ``metric_at`` on a stack
reads a declared chart once and checks every row as it checks one point,
raising the one-point error of the first failing row; an undeclared chart
(a ``replace`` of a callable) is read row by row with the same values.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from conftest import bumpy_chart
from sasakigeo import oracle
from sasakigeo.errors import DegenerateMetric, OutOfDomain
from sasakigeo.manifold import ChartedMetric, SpaceFormSpec, christoffel_at, metric_at, space_form_chart
from sasakigeo.sampling import sample_domain_point
from sasakigeo.stencil import FD_STEP_FIRST, FD_STEP_GAMMA, FD_STEP_SECOND, points, rows, stacked, takes_stacks
from sasakigeo.suites import SuiteConfig, _poly_field, matrix_configs

GRID = sorted({(cfg.n, cfg.nu, cfg.c) for cfg in matrix_configs(SuiteConfig("all"))})
STEPS = (FD_STEP_FIRST, FD_STEP_SECOND, FD_STEP_GAMMA)
CALLABLES = ("metric_fn", "deriv1_fn", "deriv2_fn", "domain_fn")


def _stencils(m, rng, k=4):
    """k stencils of each step around sampled points, their centres first: shape (len(STEPS), k, 2n + 1, n)."""
    out = []
    for step in STEPS:
        centres = [sample_domain_point(m, rng) for _ in range(k)]
        out.append([np.concatenate([x[None], points(x, step)]) for x in centres])
    return np.array(out)


def _counted(m, calls):
    """m with its three metric callables counting their calls into ``calls``, each declared as before."""
    def wrap(key, fn):
        def counted(x):
            calls[key] += 1
            return fn(x)
        return takes_stacks(counted, stacked(fn))

    calls.update(metric_fn=0, deriv1_fn=0, deriv2_fn=0)
    return replace(m, **{key: wrap(key, getattr(m, key)) for key in ("metric_fn", "deriv1_fn", "deriv2_fn")})


@pytest.mark.parametrize("n,nu,c", GRID)
def test_space_form_callables_on_a_stack_equal_their_one_point_calls(n, nu, c):
    m = space_form_chart(SpaceFormSpec(n, nu, c))
    xs = _stencils(m, np.random.default_rng(41))
    for name in CALLABLES:
        fn = getattr(m, name)
        assert stacked(fn)
        values = np.asarray(fn(xs))
        assert values.shape[: xs.ndim - 1] == xs.shape[:-1]
        for idx in np.ndindex(xs.shape[:-1]):
            assert np.array_equal(values[idx], fn(xs[idx])), (name, idx)


@pytest.mark.parametrize("n", [2, 3])
def test_poly_field_on_a_stack_equals_its_one_point_values_and_keeps_none(n):
    field = _poly_field(n, np.random.default_rng(n))
    memo = inspect.getclosurevars(field).nonlocals["values"]
    xs = np.random.default_rng(8).uniform(-0.5, 0.5, size=(3, 2 * n + 1, n))
    values = field(xs)
    assert stacked(field) and values.shape == xs.shape and memo == {}
    for idx in np.ndindex(xs.shape[:-1]):
        assert np.array_equal(values[idx], field(xs[idx]))
    assert len(memo) == xs.shape[0] * xs.shape[1]


def test_rows_calls_a_declared_callable_once_and_checks_its_leading_shape():
    calls = []
    fn = takes_stacks(lambda x: calls.append(x.shape) or 2.0 * x)
    xs = np.arange(12.0).reshape(2, 3, 2)
    assert np.array_equal(rows(fn, xs), 2.0 * xs) and calls == [(2, 3, 2)]
    with pytest.raises(ValueError, match="stacked callable"):
        rows(takes_stacks(lambda x: x[0]), xs)
    assert not stacked(lambda x: x) and not stacked(takes_stacks(lambda x: x, False))


def _undeclared_charts():
    sf = space_form_chart(SpaceFormSpec(3, 1, 2.0))
    return {"bumpy": bumpy_chart(3, 1, seed=2), "replaced space form": replace(sf, metric_fn=lambda x: sf.metric_fn(x))}


@pytest.mark.parametrize("chart", ["bumpy", "replaced space form"])
def test_an_undeclared_chart_is_read_once_per_row_with_the_same_values(chart):
    m = _undeclared_charts()[chart]
    assert not stacked(m.metric_fn)
    xs = np.array([sample_domain_point(m, np.random.default_rng(k), box=0.4) for k in range(6)]).reshape(2, 3, 3)
    calls = {}
    counted = _counted(m, calls)
    g = metric_at(counted, xs)
    assert calls["metric_fn"] == 6
    gamma = christoffel_at(counted, xs)
    assert calls["metric_fn"] == 12 and calls["deriv1_fn"] == (1 if stacked(m.deriv1_fn) else 6)
    flat = xs.reshape(6, 3)
    jets = oracle._jet_arrays(counted, flat)
    assert calls["metric_fn"] == 18
    for k, idx in enumerate(np.ndindex(2, 3)):
        assert np.array_equal(g[idx], metric_at(m, xs[idx]))
        assert np.array_equal(gamma[idx], christoffel_at(m, xs[idx]))
        for stacked_part, one_row_part in zip(jets, oracle._jet_arrays(m, flat[k : k + 1])):
            assert np.array_equal(stacked_part[k], one_row_part[0])


def test_declared_and_undeclared_reads_of_a_space_form_agree_bit_for_bit():
    sf = space_form_chart(SpaceFormSpec(3, 1, 2.0))
    plain = replace(sf, **{name: (lambda fn: lambda x: fn(x))(getattr(sf, name)) for name in CALLABLES})
    xs = _stencils(sf, np.random.default_rng(3), k=2)
    assert np.array_equal(metric_at(sf, xs), metric_at(plain, xs))
    assert np.array_equal(christoffel_at(sf, xs), christoffel_at(plain, xs))
    flat = xs.reshape(-1, 3)
    assert all(np.array_equal(a, b) for a, b in zip(oracle._jet_arrays(sf, flat), oracle._jet_arrays(plain, flat)))


def _declared_chart(value):
    """A declared 2-dimensional chart from a one-point ``value(x)``, on |x_0| < 1."""
    return ChartedMetric(
        dim=2,
        index=0,
        metric_fn=takes_stacks(lambda x: np.array(value(x)) if x.ndim == 1 else np.array([value(y) for y in x])),
        domain_fn=takes_stacks(lambda x: np.abs(x[..., 0]) < 1.0),
        name="declared",
    )


def _one_point_error(m, x):
    with pytest.raises(Exception) as err:
        metric_at(m, x)
    return err.type, str(err.value)


def test_a_stack_outside_the_domain_raises_for_its_first_outside_row():
    m = space_form_chart(SpaceFormSpec(2, 0, -1.0))  # the domain is |x| < sqrt(3.8)
    xs = np.array([[0.1, 0.2], [0.3, 2.5], [2.8, 0.0], [0.0, 0.1]])
    expected = _one_point_error(m, xs[1])
    assert expected[0] is OutOfDomain and _one_point_error(m, xs[2]) != expected
    with pytest.raises(OutOfDomain) as err:
        metric_at(m, xs)
    assert str(err.value) == expected[1]


def test_a_stack_with_a_nan_row_raises_as_that_row_does():
    m = _declared_chart(lambda x: np.full((2, 2), np.nan) if x[1] > 0.5 else np.eye(2))
    xs = np.array([[0.1, 0.0], [0.2, 0.9], [0.3, 0.0]])
    expected = _one_point_error(m, xs[1])
    assert expected[0] is DegenerateMetric
    with pytest.raises(DegenerateMetric) as err:
        metric_at(m, xs)
    assert str(err.value) == expected[1]


def test_symmetry_is_judged_at_each_rows_own_scale():
    # the same absolute asymmetry 1e-13: beyond 1e-14 at scale 1, within 1e-14 * 100 at scale 100
    m = _declared_chart(lambda x: (100.0 if x[1] > 0.5 else 1.0) * np.eye(2) + np.array([[0.0, 1e-13], [0.0, 0.0]]))
    large = np.array([[0.1, 0.9], [0.2, 0.8]])
    assert np.array_equal(metric_at(m, large)[1], metric_at(m, large[1]))
    mixed = np.array([[0.1, 0.9], [0.2, 0.1]])
    expected = _one_point_error(m, mixed[1])
    assert expected[0] is DegenerateMetric and "symmetric" in expected[1]
    with pytest.raises(DegenerateMetric) as err:
        metric_at(m, mixed)
    assert str(err.value) == expected[1]


@pytest.mark.parametrize("n,nu", [(2, 0), (3, 1)])
def test_a_cold_stencil_read_calls_a_declared_chart_once_and_an_undeclared_one_per_row(n, nu):
    rng = np.random.default_rng(n)
    for m, reads in ((space_form_chart(SpaceFormSpec(n, nu, 2.0)), 1), (bumpy_chart(n, nu, seed=1), 2 * n + 1)):
        calls = {}
        counted = _counted(m, calls)
        x = sample_domain_point(m, rng, box=0.4)
        oracle.read_stencil_jets(counted, np.concatenate([x, rng.normal(size=n)]))
        assert calls == {"metric_fn": reads, "deriv1_fn": reads, "deriv2_fn": 0}, m.name
