"""Queries at a built bundle point: one parts array per vector, lifts contracted by slot,
R-bar contracted as 2-D products, and the frame arrays a ``PointGeometry`` keeps."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sasakigeo import contact, sphere
from sasakigeo.contact import contact_data_at, h_at, nabla_phi
from sasakigeo.errors import PointMismatch
from sasakigeo.manifold import SpaceFormSpec, base_context, signature_at, space_form_chart
from sasakigeo.oracle import gauss_curvature_oracle, gauss_oracle, sb_nabla_via_ambient
from sasakigeo.sampling import sample_fiber_vector, sample_sb_point, sample_sb_vec
from sasakigeo.sphere import (
    SBVec,
    contract,
    frame_at,
    horizontal_sb,
    induced_metric_at,
    parts_metric,
    point_geometry,
    sb_curvature,
    sb_nabla,
    sb_point,
    tangential_lift,
)
from sasakigeo.tangent import TMPoint, TMVec, field_at, lift_connection_array, tm_nabla

from conftest import bumpy_chart

LIFT_PAIRS = (("h", "h"), ("h", "t"), ("t", "h"), ("t", "t"))
CHART_EPS = [("space form", 1), ("space form", -1), ("bumpy", 1), ("bumpy", -1)]


def _chart(name, n=3):
    return space_form_chart(SpaceFormSpec(n, 1, 2.0)) if name == "space form" else bumpy_chart(n, 1)


def _pad(kind, w):
    """The 2n parts of the lift of w, as the contractions padded them before they worked by slot."""
    zero = np.zeros_like(w)
    return np.concatenate([w, zero] if kind == "h" else [zero, w])


class TestPartsStorage:
    """``SBVec`` and ``TMVec`` keep their two parts as one read-only array."""

    def test_comps_is_the_stored_read_only_array_and_the_parts_are_views(self, rng):
        m = _chart("bumpy")
        p = sample_sb_point(m, 1, rng)
        v = sample_sb_vec(m, p, rng)
        parts = v.comps()
        assert v.comps() is parts and not parts.flags.writeable
        assert np.array_equal(parts, np.concatenate([v.hpart, v.tpart]))
        for half in (v.hpart, v.tpart):
            assert np.shares_memory(half, parts) and not half.flags.writeable
        with pytest.raises(ValueError):
            v.hpart[0] = 1.0
        with pytest.raises(AttributeError):
            v.at = p

    def test_a_closed_form_hands_over_its_array(self, rng):
        m = _chart("space form")
        p = sample_sb_point(m, 1, rng)
        out = rng.normal(size=6)
        v = SBVec.of(p, out)
        assert v.comps() is out and not out.flags.writeable
        a, b, c = (sample_sb_vec(m, p, rng) for _ in range(3))
        results = [
            sb_curvature(m, p, a, b, c),
            gauss_curvature_oracle(m, p, a, b, c),
            sb_nabla(m, rng.normal(size=3), rng.normal(size=3), "h", "t", p),
            sb_nabla_via_ambient(m, rng.normal(size=3), rng.normal(size=3), "t", "h", p),
            contact_data_at(m, p).phi(a),
            h_at(m, p).apply(a),
            nabla_phi(m, p, a, b),
            contact.nabla_xi(m, p, a),
        ]
        assert all(not r.comps().flags.writeable for r in results)

    def test_the_two_part_constructor_still_works(self, rng):
        m = _chart("space form")
        p = sample_sb_point(m, -1, rng)
        v = SBVec(p, [1, 2, 3], np.array([0.5, 0.25, 0.0]))
        assert v.comps().dtype == float and np.array_equal(v.comps(), [1.0, 2.0, 3.0, 0.5, 0.25, 0.0])
        assert np.array_equal(v.hpart, [1.0, 2.0, 3.0]) and np.array_equal(v.tpart, [0.5, 0.25, 0.0])
        with pytest.raises(ValueError):
            SBVec(p, np.ones(3), np.ones(2))

    def test_arithmetic_leaves_its_operands_unchanged(self, rng):
        m = _chart("bumpy")
        p = sample_sb_point(m, 1, rng)
        a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
        before = a.comps().copy(), b.comps().copy()
        results = {
            "a + b": (a + b, np.concatenate([a.hpart + b.hpart, a.tpart + b.tpart])),
            "a - b": (a - b, np.concatenate([a.hpart + (-1.0) * b.hpart, a.tpart + (-1.0) * b.tpart])),
            "2.5 a": (2.5 * a, np.concatenate([2.5 * a.hpart, 2.5 * a.tpart])),
            "-a": (-a, np.concatenate([-a.hpart, -a.tpart])),
        }
        for name, (got, expected) in results.items():
            assert got.at is p and np.array_equal(got.comps(), expected), name
            assert not np.shares_memory(got.comps(), a.comps()) and not np.shares_memory(got.comps(), b.comps())
        assert np.array_equal(a.comps(), before[0]) and np.array_equal(b.comps(), before[1])
        other = sample_sb_vec(m, sample_sb_point(m, 1, rng), rng)
        for op in (lambda: a + other, lambda: a - other):
            with pytest.raises(PointMismatch):
                op()

    def test_tm_vectors_keep_one_array_too(self, rng):
        at = TMPoint(np.array([0.1, -0.2]), np.array([0.3, 0.4]))
        v = TMVec(at, [1.0, 2.0], [3.0, 4.0])
        assert not v.comps().flags.writeable and v.comps() is v.comps()
        assert np.shares_memory(v.vpart, v.comps()) and np.array_equal(v.vpart, [3.0, 4.0])
        w = TMVec.of(at, np.array([0.5, 0.5, 0.5, 0.5]))
        assert np.array_equal((v - w).comps(), [0.5, 1.5, 2.5, 3.5]) and np.array_equal(v.comps(), [1, 2, 3, 4])
        with pytest.raises(PointMismatch):
            v + TMVec(TMPoint(at.x + 1.0, at.u), [0, 0], [0, 0])


class TestContractions:
    """R-bar as 2-D products, lifts by slot, and the induced metric as one block product."""

    @pytest.mark.parametrize("chart,eps", CHART_EPS)
    def test_rbar_2d_products_equal_the_stacked_matmul_bit_for_bit(self, rng, chart, eps):
        m = _chart(chart)
        p = sample_sb_point(m, eps, rng)
        for rb in (point_geometry(m, p).rbar, gauss_oracle(m, p).rbar):
            for _ in range(5):
                a, b, c = (sample_sb_vec(m, p, rng).comps() for _ in range(3))
                got = contract(rb, a, b, c)
                assert np.array_equal(got, ((rb @ c) @ b) @ a)
                ref = np.einsum("oabc,a,b,c->o", rb, a, b, c)
                assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("chart,eps", CHART_EPS)
    def test_slot_contractions_equal_the_padded_ones(self, rng, chart, eps):
        m = _chart(chart)
        p = sample_sb_point(m, eps, rng)
        geo, ctx = point_geometry(m, p), gauss_oracle(m, p)
        for kx, ky in LIFT_PAIRS:
            xc, yc = rng.normal(size=3), rng.normal(size=3)
            conn = geo.connection
            padded = (conn @ _pad(ky, yc)) @ _pad(kx, xc)
            if kx == "h":
                padded = padded + _pad(ky, geo.base.nabla(m, xc, yc, yc))
            padded[3:] = geo.proj @ padded[3:]
            got = sb_nabla(m, xc, yc, kx, ky, p).comps()
            assert np.abs(got - padded).max() <= 1e-14 * max(1.0, np.abs(padded).max()), (kx, ky)
            via = (ctx.nabla @ _pad(ky, yc)) @ _pad(kx, xc)
            got = sb_nabla_via_ambient(m, xc, yc, kx, ky, p).comps()
            assert np.abs(got - via).max() <= 1e-14 * max(1.0, np.abs(via).max()), (kx, ky)

    def test_tm_nabla_by_slot_equals_the_padded_contraction(self, rng):
        m = _chart("bumpy")
        at = TMPoint(np.array([0.1, -0.2, 0.05]), rng.normal(size=3))
        base = base_context(m, at.x)
        conn = lift_connection_array(base.curvature(m)[1], at.u)
        for kx, ky in (("h", "h"), ("h", "v"), ("v", "h"), ("v", "v")):
            xc, yc = rng.normal(size=3), rng.normal(size=3)
            padded = (conn @ _pad(ky, yc)) @ _pad(kx, xc)
            if kx == "h":
                padded = padded + _pad(ky, base.nabla(m, xc, yc, yc))
            got = tm_nabla(m, xc, yc, kx, ky, at).comps()
            assert np.abs(got - padded).max() <= 1e-14 * max(1.0, np.abs(padded).max()), (kx, ky)

    @pytest.mark.parametrize("chart,eps", CHART_EPS)
    def test_induced_metric_is_the_sum_of_the_two_parts(self, rng, chart, eps):
        m = _chart(chart)
        p = sample_sb_point(m, eps, rng)
        g = point_geometry(m, p).base.g
        for _ in range(5):
            a, b = sample_sb_vec(m, p, rng), sample_sb_vec(m, p, rng)
            ref = float(a.hpart @ g @ b.hpart + a.tpart @ g @ b.tpart)
            assert abs(induced_metric_at(m, p, a, b) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_a_constant_field_is_its_own_components(self):
        const = np.array([0.5, -1.0, 2.0])
        assert field_at(const, np.zeros(3)) is const
        assert np.array_equal(field_at([1, 2, 3], np.zeros(3)), [1.0, 2.0, 3.0])
        assert np.array_equal(field_at(lambda x: x + 1.0, np.zeros(3)), np.ones(3))


class TestKeptFrameArrays:
    """``PointGeometry.frame`` and ``h_matrix``: built once per point, wrapped with p by ``frame_at`` and ``h_at``."""

    @staticmethod
    def _old_frame_parts(m, p):
        es, _ = point_geometry(m, p).base_frame
        vectors = [tangential_lift(m, p, e) for e in es] + [horizontal_sb(p, e) for e in es] + [horizontal_sb(p, p.u)]
        return np.stack([v.comps() for v in vectors], axis=1)

    @pytest.mark.parametrize("chart,eps", CHART_EPS)
    def test_frame_and_h_matrix_equal_the_per_call_formulas_bit_for_bit(self, rng, chart, eps):
        m = _chart(chart)
        p = sample_sb_point(m, eps, rng)
        geo = point_geometry(m, p)
        f = self._old_frame_parts(m, p)
        e_signs = geo.base_frame[1]
        signs = np.concatenate([e_signs, e_signs, [float(p.eps)]])
        frame = frame_at(m, p)
        assert np.array_equal(frame.columns, f) and np.array_equal(frame.signs, signs)
        assert all(np.array_equal(v.comps(), col) for v, col in zip(frame.vectors, f.T))
        old = signs[:, None] * parts_metric(geo.base.g, f, geo.h_parts @ f)
        assert np.array_equal(h_at(m, p).matrix, old)

    def test_frame_at_and_h_at_wrap_the_kept_arrays(self, rng):
        m = _chart("bumpy")
        p = sample_sb_point(m, 1, rng)
        geo = point_geometry(m, p)
        frame, hop = frame_at(m, p), h_at(m, p)
        assert frame.columns is geo.frame[0] and frame.signs is geo.frame[1]
        assert hop.matrix is geo.h_matrix and frame_at(m, p).columns is geo.frame[0]
        for a in (geo.gbar, *geo.frame, geo.h_matrix):
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_h_matrix_is_built_once_per_point_and_again_for_new_callables(self, monkeypatch, rng):
        m = _chart("bumpy")
        p = sample_sb_point(m, -1, rng)
        builds = []
        real = sphere.parts_metric
        monkeypatch.setattr(sphere, "parts_metric", lambda *args: builds.append(None) or real(*args))
        first = [h_at(m, p).matrix for _ in range(3)]
        assert len(builds) == 1 and all(x is first[0] for x in first)
        m.metric_fn = lambda x, fn=m.metric_fn: fn(x)  # the same metric through a new callable
        again = h_at(m, p).matrix
        assert len(builds) == 2 and again is not first[0] and np.array_equal(again, first[0])


    @pytest.mark.parametrize("chart,eps", CHART_EPS)
    def test_apply_builds_no_frame_and_the_eigenvalues_stay(self, rng, chart, eps):
        m = _chart(chart)
        p = sample_sb_point(m, eps, rng)
        geo = point_geometry(m, p)
        hop = h_at(m, p)
        a = sample_sb_vec(m, p, rng)
        assert np.array_equal(hop.apply(a).comps(), geo.h_parts @ a.comps())
        assert not {"base_frame", "frame", "h_matrix"} & set(vars(geo))
        assert np.array_equal(hop.eigenvalues(), np.sort(np.linalg.eigvals(geo.h_matrix).real))
        assert frame_at(m, p).columns is geo.frame[0] and hop.at is p


class TestColdPoint:
    """A cold bundle point reads its chart once on each side: the independent oracle reads g, g'
    and g'' at x and its 2n stencil rows, the closed forms x's g' and g'' and then g'' alone
    at the 2n rows of the nabla R stencil."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("oracle_first", [False, True], ids=["closed form first", "oracle first"])
    def test_the_first_queries_read_the_chart_at_the_budget(self, n, eps, oracle_first):
        calls = {"metric_fn": 0, "deriv1_fn": 0, "deriv2_fn": 0}

        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)

            return wrapped

        bumpy = bumpy_chart(n, 1)
        m = replace(bumpy, **{name: counted(name, getattr(bumpy, name)) for name in calls})
        rng = np.random.default_rng(11)
        p = sample_sb_point(m, eps, rng)  # reads g at x
        a, b, c = (sample_sb_vec(m, p, rng) for _ in range(3))
        calls.update(dict.fromkeys(calls, 0))
        queries = [lambda: sb_curvature(m, p, a, b, c), lambda: gauss_curvature_oracle(m, p, a, b, c)]
        for query in queries[::-1] if oracle_first else queries:
            query()
        h_at(m, p).apply(a)
        # 2n + 1 rows on the oracle side; x's g' and g'', and g'' at the 2n rows of nabla R, on the closed side
        assert calls == {"metric_fn": 2 * n + 1, "deriv1_fn": 2 * n + 2, "deriv2_fn": 4 * n + 2}


def _ops():
    """Warm queries at p, each given (m, p, rng)."""

    def vecs(m, p, rng, k):
        return [sample_sb_vec(m, p, rng) for _ in range(k)]

    return {
        "sb_curvature": lambda m, p, rng: sb_curvature(m, p, *vecs(m, p, rng, 3)),
        "gauss_curvature_oracle": lambda m, p, rng: gauss_curvature_oracle(m, p, *vecs(m, p, rng, 3)),
        "h_at(...).apply": lambda m, p, rng: h_at(m, p).apply(*vecs(m, p, rng, 1)),
        "contact_data_at(...).phi": lambda m, p, rng: contact_data_at(m, p).phi(*vecs(m, p, rng, 1)),
        "nabla_phi": lambda m, p, rng: nabla_phi(m, p, *vecs(m, p, rng, 2)),
        "frame_at": lambda m, p, rng: frame_at(m, p).vectors,
        "second_fundamental_form_rows": lambda m, p, rng: gauss_oracle(m, p).second_fundamental_form_rows(
            *(v.comps() for v in vecs(m, p, rng, 2))
        ),
        "sb_nabla_via_ambient": lambda m, p, rng: sb_nabla_via_ambient(m, rng.normal(size=3), rng.normal(size=3), "h", "t", p),
        "tm_nabla": lambda m, p, rng: tm_nabla(m, rng.normal(size=3), lambda x: 2.0 * x, "h", "v", p.tm),
        "signature_at": lambda m, p, rng: signature_at(m, p.x),
    }


def _point_freed(m, op) -> bool:
    """Whether reference counting alone frees p once ``op`` ran twice at p (cold, then warm)."""

    def run():
        rng = np.random.default_rng(5)
        p = sample_sb_point(m, 1, rng)
        op(m, p, rng)
        op(m, p, rng)
        return weakref.ref(p)

    gc.disable()  # a reference cycle through p would keep it until a collection
    try:
        return run()() is None
    finally:
        gc.enable()


class TestNoKeptContextHoldsThePoint:
    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    @pytest.mark.parametrize("name", list(_ops()))
    def test_the_point_is_freed_by_reference_counting(self, chart, name):
        assert _point_freed(_chart(chart), _ops()[name])

    @pytest.mark.parametrize("chart", ["space form", "bumpy"])
    def test_the_base_context_a_twin_shares_keeps_no_point(self, chart):
        m = _chart(chart)
        rng = np.random.default_rng(5)
        gc.disable()
        try:
            p = sample_sb_point(m, 1, rng)
            sb_curvature(m, p, *(sample_sb_vec(m, p, rng) for _ in range(3)))
            x, base, freed = p.x.copy(), point_geometry(m, p).base, weakref.ref(p)
            del p
            assert freed() is None  # the chart still keeps x's context
            twin = sb_point(m, x, sample_fiber_vector(m, x, -1, rng), -1)
            assert point_geometry(m, twin).base is base
        finally:
            gc.enable()

    def test_a_context_that_keeps_its_point_is_caught(self, monkeypatch):
        real = sphere.PointGeometry.__init__

        def keeping(geo, m, p):
            real(geo, m, p)
            geo.__dict__["point"] = p

        monkeypatch.setattr(sphere.PointGeometry, "__init__", keeping)
        assert not _point_freed(_chart("space form"), _ops()["frame_at"])
