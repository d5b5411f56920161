"""Seeded sampling of bundle points."""

import numpy as np
import pytest

from sasakigeo import sampling
from sasakigeo.errors import SamplingFailure
from sasakigeo.manifold import SpaceFormSpec, metric_at, space_form_chart
from sasakigeo.sampling import FIBER_NORM_MAX, sample_domain_point, sample_fiber_vector, sample_sb_point
from sasakigeo.sphere import horizontal_sb, point_geometry, tangential_lift

STEEP = space_form_chart(SpaceFormSpec(2, 0, 20.0))  # F(x) = 1 + 5|x|^2 passes 3 inside the sample box
NO_FIBER_SEED = 25  # the first x it draws has F(x) = 3.2


class TestSampleSbPoint:
    def test_a_base_point_without_a_fiber_is_redrawn(self):
        x0 = sample_domain_point(STEEP, np.random.default_rng(NO_FIBER_SEED))
        # g = I / F^2, so every u with g(u, u) = 1 has ||u|| = F(x0), above the norm cap
        assert 1.0 / np.sqrt(metric_at(STEEP, x0)[0, 0]) > FIBER_NORM_MAX
        with pytest.raises(SamplingFailure):
            sample_fiber_vector(STEEP, x0, 1, np.random.default_rng(0))
        p = sample_sb_point(STEEP, 1, np.random.default_rng(NO_FIBER_SEED))
        assert not np.allclose(p.x, x0)
        assert float(p.u @ metric_at(STEEP, p.x) @ p.u) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(p.u) <= FIBER_NORM_MAX

    @pytest.mark.parametrize("nu,eps", [(0, 1), (1, 1), (1, -1)])
    def test_a_first_base_point_with_a_fiber_keeps_its_draws(self, nu, eps):
        m = space_form_chart(SpaceFormSpec(3, nu, 2.0))
        rng = np.random.default_rng(7)
        x = sample_domain_point(m, rng)
        u = sample_fiber_vector(m, x, eps, rng)
        p = sample_sb_point(m, eps, np.random.default_rng(7))
        assert np.array_equal(p.x, x) and np.array_equal(p.u, u)

    def test_gives_up_after_a_fixed_number_of_base_points(self, monkeypatch):
        monkeypatch.setattr(sampling, "BASE_POINT_TRIES", 3)
        draws = []

        def counted(m, rng, box=sampling.SAMPLE_BOX):
            draws.append(None)
            return np.full(m.dim, 0.54)  # F = 3.9 at the box corner: no fiber vector

        monkeypatch.setattr(sampling, "sample_domain_point", counted)
        with pytest.raises(SamplingFailure, match="3 base points"):
            sample_sb_point(STEEP, 1, np.random.default_rng(0))
        assert len(draws) == 3

    @pytest.mark.parametrize("nu,eps", [(0, -1), (2, 1)])
    def test_a_sign_the_metric_index_rules_out_draws_no_base_point(self, monkeypatch, nu, eps):
        monkeypatch.setattr(sampling, "sample_domain_point", lambda *args, **kwargs: pytest.fail("drew a base point"))
        with pytest.raises(SamplingFailure, match="index"):
            sample_sb_point(space_form_chart(SpaceFormSpec(2, nu, 1.0)), eps, np.random.default_rng(0))


class TestSampledBundleVectors:
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("sampler", ["sample_sb_vec", "sample_ker_eta_vec"])
    def test_parts_equal_the_lift_sum_and_the_draws_stay(self, eps, sampler):
        m = space_form_chart(SpaceFormSpec(3, 1, 2.0))
        p = sample_sb_point(m, eps, np.random.default_rng(3))
        g = point_geometry(m, p).base.g
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = getattr(sampling, sampler)(m, p, rng)
            # the reference: the sum of the two lifts, drawn h first, then t
            h = ref_rng.normal(size=3)
            if sampler == "sample_ker_eta_vec":
                h = h - eps * float(h @ g @ p.u) * p.u
            ref = horizontal_sb(p, h) + tangential_lift(m, p, ref_rng.normal(size=3))
            assert got.at is p and got.comps().tobytes() == ref.comps().tobytes()
            assert not got.comps().flags.writeable
            assert rng.bit_generator.state == ref_rng.bit_generator.state
