"""Parameter-space construction and sampling streams."""

import numpy as np
import pytest

from miscuq.params import Gaussian, ParamSpace, ParamSpec, Uniform


def make_space(*dists):
    return ParamSpace(ParamSpec(f"p{i}", d) for i, d in enumerate(dists))


class TestValidation:
    def test_uniform_needs_ordered_interval(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(2.0, -1.0)

    def test_gaussian_needs_positive_std(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)

    def test_names_must_be_unique(self):
        with pytest.raises(ValueError):
            ParamSpace([ParamSpec("a", Uniform(0, 1)), ParamSpec("a", Uniform(0, 1))])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ParamSpace([])


class TestSampling:
    def test_uniform_mean_converges(self):
        space = make_space(Uniform(0.0, 1.0))
        draws = space.sample(100_000, seed=7)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_gaussian_std_converges(self):
        space = make_space(Gaussian(-3.0, 0.92))
        draws = space.sample(100_000, seed=11)
        assert abs(draws.std(ddof=1) - 0.92) / 0.92 < 0.02

    def test_single_draw_in_support(self):
        space = make_space(Uniform(-5.0, 0.0), Uniform(1130.0, 1450.0))
        v = space.sample(1, seed=3)[0]
        assert -5.0 <= v[0] <= 0.0 and 1130.0 <= v[1] <= 1450.0

    def test_reproducible_streams(self):
        space = make_space(Uniform(0.0, 1.0), Gaussian(2.0, 0.3))
        a = space.sample(64, seed=42)
        b = space.sample(64, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        space = make_space(Uniform(0.0, 1.0))
        assert not np.array_equal(space.sample(16, seed=1), space.sample(16, seed=2))

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            make_space(Uniform(0, 1)).sample(0, seed=1)

    def test_uniform_samples_in_interval(self):
        space = make_space(Uniform(-5.0, 0.0))
        draws = space.sample(1000, seed=5)
        assert draws.min() >= -5.0 and draws.max() <= 0.0
