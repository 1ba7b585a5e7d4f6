"""Parameter-space construction and sampling streams."""

import numpy as np
import pytest

from miscuq.params import (Gaussian, ParamSpace, ParamSpec, Uniform, check_covariance,
                           symmetric_eigen)


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

    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_uniform_needs_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            Uniform(lo, hi)

    @pytest.mark.parametrize("mean, std", [(np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_gaussian_needs_finite_mean_and_std(self, mean, std):
        with pytest.raises(ValueError, match="finite"):
            Gaussian(mean, std)

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


def eigenvalue_rule(cov):
    """The covariance rule with numpy's symmetric eigensolver, as the
    reference: None, "symmetric" or "semi-definite"."""
    trace = abs(np.trace(cov))
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * max(1.0, trace)):
        return "symmetric"
    if np.linalg.eigvalsh(cov).min() < -1e-10 * max(trace, 1e-300):
        return "semi-definite"
    return None


def covariance_rule(cov):
    try:
        check_covariance(cov.tolist())
    except ValueError as exc:
        return "symmetric" if "symmetric" in str(exc) else "semi-definite"
    return None


def test_covariance_check_matches_eigenvalue_rule():
    # random symmetric, indefinite, low-rank and widely scaled matrices, and
    # low-rank ones shifted down by clearly less or clearly more than the
    # tolerance of 1e-10 |trace|; each gets the same verdict from both rules
    rng = np.random.default_rng(17)
    verdicts = []
    for trial in range(3000):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        low = rng.normal(size=(n, max(1, n - 2)))
        low = low @ low.T
        shift = rng.choice([rng.uniform(0.0, 0.5e-10), rng.uniform(1.5e-10, 3e-10)])
        cov = [a @ a.T, (a + a.T) / 2, a, low - shift * np.trace(low) * np.eye(n),
               a @ a.T * 10.0 ** rng.integers(-30, 30)][trial % 5]
        verdicts.append(covariance_rule(cov))
        assert verdicts[-1] == eigenvalue_rule(cov), cov
    assert {None, "symmetric", "semi-definite"} <= set(verdicts)
    for cov in (np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([np.nan, 1.0])):
        assert covariance_rule(cov) == eigenvalue_rule(cov)


@pytest.mark.parametrize("diagonal", [(1e308, 1e308), (-1e308, -1e308), (1e308, 1e308, -1e308)])
def test_covariance_with_overflowing_trace_names_the_overflow(diagonal):
    # every entry is finite, but the diagonal does not sum to a float
    with pytest.raises(ValueError, match=r"covariance trace overflows the float range \((-)?inf\)"):
        check_covariance(np.diag(diagonal).tolist())


def symmetric_matrices(kind, rng):
    """Symmetric matrices of sizes 1 to 6 of one kind, 20 of each size."""
    for n in range(1, 7):
        for _ in range(20):
            a = rng.normal(size=(n, n))
            if kind == "rank-deficient":
                low = rng.normal(size=(n, max(1, n - 2)))
                yield low @ low.T
            elif kind == "diagonal":
                yield np.diag(rng.normal(size=n))
            elif kind == "zero":
                yield np.zeros((n, n))
            else:
                yield (a + a.T) * {"random": 1.0, "1e-150": 1e-150, "1e150": 1e150,
                                   "1e200": 1e200}[kind]


@pytest.mark.parametrize("kind", ["random", "zero", "diagonal", "rank-deficient", "1e-150",
                                  "1e150", "1e200"])
def test_symmetric_eigen_matches_numpy(kind):
    # near 1e200 a Frobenius-norm threshold overflows to inf and would skip
    # every rotation, leaving the diagonal as the eigenvalues
    rng = np.random.default_rng(["random", "zero", "diagonal", "rank-deficient", "1e-150",
                                 "1e150", "1e200"].index(kind))
    for a in symmetric_matrices(kind, rng):
        values, vectors = symmetric_eigen(a.tolist())
        scale = np.abs(a).max()
        assert values == sorted(values, reverse=True)
        assert np.abs(np.array(values) - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-13 * scale, a
        v = np.array(vectors)
        assert np.abs(np.einsum("ik,jk->ij", v, v) - np.eye(len(a))).max() <= 1e-13, a
        assert np.abs(np.einsum("ij,kj->ki", a, v) - np.array(values)[:, None] * v).max() \
            <= 1e-13 * scale, a
        if kind in ("zero", "diagonal"):  # no rotation: the diagonal, sorted, and unit vectors
            assert values == sorted(np.diag(a).tolist(), reverse=True)
            assert sorted(map(tuple, vectors), reverse=True) == list(map(tuple, np.eye(len(a))))


def test_symmetric_eigen_reads_the_lower_triangle():
    assert symmetric_eigen([[2.0, 99.0], [0.0, 3.0]]) == ([3.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])
