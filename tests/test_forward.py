"""Forward propagation: sample pushes, KDE, modes, quantiles, band math."""

import tracemalloc
import types

import numpy as np
import pytest

from miscuq import forward
from miscuq.interp import TensorInterpolant, build_grid
from miscuq.bayes import GaussianPosterior
from miscuq.forward import (
    BandSummary,
    PushResult,
    kde,
    mode,
    push_samples,
    quantiles,
    read_bands_csv,
    summarize_bands,
    uncertainty_reduction,
    write_bands_csv,
)
from miscuq.params import Gaussian, ParamSpace, ParamSpec, Uniform


class FakeSurrogate:
    """Minimal surrogate surface: a linear map of the parameters, compiled
    as its own interpolant whose basis row at a point is the point and
    whose value table is the transposed weights."""

    def __init__(self, weights, names=None, domain=((-np.inf, np.inf),)):
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        self.values = np.ascontiguousarray(weights.T)
        self.qoi_names = tuple(names or (f"q_{j}" for j in range(weights.shape[0])))
        self._domain = domain
        self.compiled = self

    def basis(self, pts):
        return np.atleast_2d(np.asarray(pts, dtype=float))

    def extrapolation_mask(self, pts):
        pts = np.atleast_2d(pts)
        mask = np.zeros(pts.shape[0], dtype=bool)
        for n, (lo, hi) in enumerate(self._domain):
            mask |= (pts[:, n] < lo) | (pts[:, n] > hi)
        return mask


def normal_space(mean=0.0, std=1.0):
    return ParamSpace([ParamSpec("x", Gaussian(mean, std))])


def samples(push):
    """The (S, J) push as one contraction, in the surrogate's summation order."""
    return np.einsum("sg,gj->sj", push.basis, push.values)


def columns_push(cols):
    """A push whose QoI columns are exactly ``cols``: an identity value table."""
    return PushResult(tuple(f"q_{j}" for j in range(cols.shape[1])), cols,
                      np.eye(cols.shape[1]), 0.0)


def brute_force_density(samples, bandwidth, grid):
    """Reference Gaussian-kernel sum: every sample at every grid point."""
    z = (grid[:, None] - samples[None, :]) / bandwidth
    z *= z
    z *= -0.5
    return np.exp(z, out=z).sum(axis=1) / (samples.size * bandwidth * np.sqrt(2.0 * np.pi))


def spacing(est):
    """The grid spacing of a density estimate, to which its mode is located."""
    return float(est.grid[-1] - est.grid[0]) / (est.grid.size - 1)


def bandwidth_for_ratio(samples, ratio, grid_size=512):
    """Bandwidth whose default grid has spacing ``ratio`` bandwidths."""
    return float(np.ptp(samples)) / ((grid_size - 1) * ratio - 6.0)


def bimodal_draws(n=10_000, seed=21):
    rng = np.random.default_rng(seed)
    pick = rng.uniform(size=n) < 0.7
    return np.where(pick, rng.normal(0.0, 0.1, n), rng.normal(5.0, 0.1, n))


class TestPushSamples:
    def test_constant_surrogate_gives_equal_samples(self):
        class Const(FakeSurrogate):
            def basis(self, pts):
                return np.ones((np.atleast_2d(pts).shape[0], 1))

        push = push_samples(Const([[4.25]]), normal_space(), count=50, seed=1)
        assert np.all(samples(push) == 4.25)

    def test_identity_push_preserves_std(self):
        push = push_samples(FakeSurrogate([[1.0]]), normal_space(), count=100_000, seed=2)
        assert abs(samples(push).std(ddof=1) - 1.0) < 0.02

    def test_extrapolated_fraction_counted(self):
        surrogate = FakeSurrogate([[1.0]], domain=((-1.0, 1.0),))
        push = push_samples(surrogate, normal_space(), count=100_000, seed=4)
        # P(|N(0,1)| > 1) about 0.3173
        assert push.extrapolated_fraction == pytest.approx(0.3173, abs=0.01)

    def test_posterior_distribution_accepted(self):
        post = GaussianPosterior(np.array([2.0]), np.array([[0.25]]), 0.1)
        push = push_samples(FakeSurrogate([[1.0]]), post, count=50_000, seed=5)
        assert abs(samples(push).mean() - 2.0) < 0.01

    def test_reproducible(self):
        a = push_samples(FakeSurrogate([[1.0]]), normal_space(), count=100, seed=9)
        b = push_samples(FakeSurrogate([[1.0]]), normal_space(), count=100, seed=9)
        assert np.array_equal(samples(a), samples(b))

    def test_keeps_the_interpolant_basis_and_values(self):
        grid = build_grid((3, 2), (Uniform(0.0, 1.0), Uniform(-1.0, 1.0)))
        compiled = TensorInterpolant(grid, np.random.default_rng(6).normal(size=(len(grid), 4)))
        surrogate = FakeSurrogate(np.zeros((4, 2)), domain=((0.0, 1.0), (-1.0, 1.0)))
        surrogate.compiled = compiled
        space = ParamSpace([ParamSpec("a", Uniform(0.0, 1.0)), ParamSpec("b", Uniform(-1.0, 1.0))])
        push = push_samples(surrogate, space, count=300, seed=7)
        draws = space.sample(300, 7)
        assert push.values is compiled.values and push.basis.shape[0] == 300
        assert samples(push).tobytes() == compiled.evaluate_many(draws).tobytes()


class TestKde:
    def test_standard_normal_mode_near_zero(self):
        draws = normal_space().sample(100_000, seed=11)[:, 0]
        assert abs(mode(kde(draws))) < 0.05

    def test_degenerate_sample_flagged(self):
        est = kde(np.zeros(2))
        assert est.degenerate
        assert mode(est) == 0.0

    def test_integral_close_to_one(self):
        draws = normal_space().sample(20_000, seed=12)[:, 0]
        est = kde(draws)
        assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=1e-2)

    def test_grid_spans_three_bandwidths(self):
        draws = np.array([0.0, 1.0, 2.0, 3.0])
        est = kde(draws)
        assert est.grid[0] == pytest.approx(0.0 - 3 * est.bandwidth)
        assert est.grid[-1] == pytest.approx(3.0 + 3 * est.bandwidth)
        assert est.grid.size == 512

    def test_explicit_bandwidth_used(self):
        draws = np.array([0.0, 1.0])
        est = kde(draws, bandwidth=0.5)
        assert est.bandwidth == 0.5

    def test_silverman_default(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(0, 2.0, 5000)
        est = kde(draws)
        sd = draws.std(ddof=1)
        iqr = np.quantile(draws, 0.75) - np.quantile(draws, 0.25)
        assert est.bandwidth == pytest.approx(0.9 * min(sd, iqr / 1.34) * 5000 ** -0.2)

    def test_density_nonnegative(self):
        draws = np.random.default_rng(4).uniform(-1, 1, 3000)
        assert kde(draws).density.min() >= 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            kde(np.array([1.0]))


class TestBinnedKde:
    """The binned-FFT estimate against the brute-force kernel sum.

    Linear binning moves each sample to a linear interpolation between its
    two grid neighbours, so at a grid point the error per sample is at most
    (dx/bw)^2 / 8 of one kernel's peak 1/(bw sqrt(2 pi)); relative to the
    density's own peak it is O((dx/bw)^2) times the density's curvature on
    the bandwidth scale.  For a density that is smooth on that scale the
    error stays below 1e-3 of the peak up to dx/bw = 0.25.
    """

    @pytest.mark.parametrize("ratio", [0.05, None, 0.25])
    def test_matches_brute_force_on_smooth_density(self, ratio):
        draws = normal_space().sample(10_000, seed=13)[:, 0]
        bw = None if ratio is None else bandwidth_for_ratio(draws, ratio)
        est = kde(draws, bw)
        assert spacing(est) / est.bandwidth <= 0.25 + 1e-12
        ref = brute_force_density(draws, est.bandwidth, est.grid)
        assert np.abs(est.density - ref).max() <= 1e-3 * ref.max()

    @pytest.mark.parametrize("draws", [
        bimodal_draws(),
        np.random.default_rng(5).uniform(-1.0, 1.0, 3000),
        np.random.default_rng(6).exponential(1.0, 10_000),
    ], ids=["bimodal", "uniform", "exponential"])
    @pytest.mark.parametrize("ratio", [None, 0.25])
    def test_error_within_binning_bound(self, draws, ratio):
        bw = None if ratio is None else bandwidth_for_ratio(draws, ratio)
        est = kde(draws, bw)
        ref = brute_force_density(draws, est.bandwidth, est.grid)
        r = spacing(est) / est.bandwidth
        bound = r * r / 8.0 / (est.bandwidth * np.sqrt(2.0 * np.pi))
        assert np.abs(est.density - ref).max() <= bound * (1.0 + 1e-9)

    def test_bimodal_argmax_unchanged(self):
        est = kde(bimodal_draws())
        ref = brute_force_density(est.samples, est.bandwidth, est.grid)
        assert np.argmax(est.density) == np.argmax(ref)

    @pytest.mark.parametrize("draws, bw", [
        (np.random.default_rng(8).standard_cauchy(10_000), None),
        (np.array([0.0, 1.0]), 0.01),
    ], ids=["heavy-tailed", "two-points"])
    def test_nonnegative_across_empty_stretches(self, draws, bw):
        # far from every sample the density underflows to 0, where FFT
        # round-off alone leaves tiny negative values
        assert kde(draws, bw).density.min() >= 0.0


class TestMode:
    def test_bimodal_mixture_prefers_heavier_mode(self):
        rng = np.random.default_rng(21)
        n = 100_000
        pick = rng.uniform(size=n) < 0.7
        draws = np.where(pick, rng.normal(0.0, 0.1, n), rng.normal(5.0, 0.1, n))
        m = mode(kde(draws))
        assert abs(m) < 0.2  # near 0, nowhere near the mean 1.5

    def test_tie_takes_smallest_abscissa(self):
        est = kde(np.array([0.0, 1.0]), bandwidth=0.3)
        flat = est.density.copy()
        flat[:] = 1.0
        tied = type(est)(est.samples, est.bandwidth, est.grid, flat)
        assert mode(tied) == est.grid[0]


class TestQuantiles:
    def test_median_of_five(self):
        assert quantiles(np.arange(1.0, 6.0), 0.5)[0] == 3.0

    def test_interpolated_tail(self):
        assert quantiles(np.arange(1.0, 6.0), 0.95)[0] == pytest.approx(4.8, abs=1e-12)

    def test_exact_on_uniform_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert quantiles(grid, 0.05)[0] == pytest.approx(0.05, abs=1e-15)

    def test_monotone_across_probs(self):
        draws = np.random.default_rng(6).normal(size=5000)
        q = quantiles(draws, [0.05, 0.5, 0.95])
        assert q[0] <= q[1] <= q[2]

    def test_probs_outside_open_interval_rejected(self):
        with pytest.raises(ValueError):
            quantiles(np.arange(5.0), [0.0])
        with pytest.raises(ValueError):
            quantiles(np.arange(5.0), [1.0])

    def test_columns_along_axis_0(self):
        draws = np.random.default_rng(8).normal(size=(999, 3))
        q = quantiles(draws, [0.05, 0.25, 0.95])
        assert q.shape == (3, 3)
        for j in range(3):
            assert q[:, j].tobytes() == quantiles(draws[:, j], [0.05, 0.25, 0.95]).tobytes()

    @pytest.mark.parametrize("probs", [[0.05, 0.25, 0.75, 0.95], 0.5,
                                       [5e-324, 1e-12, 1 - 1e-12, 1 - 2**-53]])
    def test_equals_numpy_linear_bit_for_bit(self, probs):
        # probs next to 0 and 1 put the virtual index at 0 and at S - 1
        rng = np.random.default_rng(12)
        push = rng.normal(size=(10_000, 6)) * [1e-6, 1.0, 1e3, 1.0, 1.0, 1.0]
        push[:, 3] = np.round(push[:, 3])  # ties
        push[:, 4] = np.exp(push[:, 4])  # skewed
        expected = np.quantile(push, np.atleast_1d(probs), axis=0, method="linear")
        assert quantiles(push, probs).tobytes() == expected.tobytes()

    def test_signed_zero_is_the_only_difference(self):
        # a sort and numpy's partition may order -0.0 and 0.0 differently, so
        # a zero quantile may carry the other sign; every other bit agrees
        rng = np.random.default_rng(0)
        probs = [0.05, 0.25, 0.5, 0.75, 0.95]
        for _ in range(500):
            draws = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(int(rng.integers(2, 12)), 3))
            q = quantiles(draws, probs)
            expected = np.quantile(draws, probs, axis=0, method="linear")
            assert np.array_equal(q, expected)
            differs = np.signbit(q) != np.signbit(expected)
            assert np.all(q[differs] == 0.0)

    @pytest.mark.parametrize("samples", [2.0, [2.0], [[2.0, 3.0]]])
    def test_needs_two_samples(self, samples):
        with pytest.raises(ValueError, match="at least 2 samples"):
            quantiles(samples, 0.5)


class TestAffineEquivariance:
    def test_mode_and_quantiles_transform_together(self):
        rng = np.random.default_rng(31)
        draws = rng.normal(1.0, 0.5, 50_000)
        a, b = 2.5, -4.0
        est = kde(draws)
        est_t = kde(a * draws + b)
        m, m_t = mode(est), mode(est_t)
        assert m_t == pytest.approx(a * m + b, abs=3 * (a * spacing(est)))
        q = quantiles(draws, [0.05, 0.95])
        q_t = quantiles(a * draws + b, [0.05, 0.95])
        assert q_t == pytest.approx(a * q + b, rel=1e-12)


class TestBands:
    def make_push(self):
        space = ParamSpace([ParamSpec("x", Gaussian(0.0, 1.0)),
                            ParamSpec("y", Gaussian(2.0, 0.5))])
        surrogate = FakeSurrogate([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]],
                                  domain=((-np.inf, np.inf), (-np.inf, np.inf)))
        return push_samples(surrogate, space, count=20_000, seed=41)

    def test_summary_shape_and_order(self):
        bands = summarize_bands(self.make_push())
        assert bands.qoi_names == ("q_0", "q_1", "q_2")
        assert np.all(bands.q05 <= bands.q95)

    def test_band_quantiles_equal_per_column_quantiles(self):
        push = self.make_push()
        bands = summarize_bands(push)
        per_column = np.array([quantiles(column, [0.05, 0.95]) for column in samples(push).T])
        assert np.array_equal(bands.q05, per_column[:, 0])
        assert np.array_equal(bands.q95, per_column[:, 1])

    def test_one_quantile_call_per_column(self, monkeypatch):
        # the IQR comes from the band call: kde never computes it again
        calls = []
        original = forward.quantiles
        monkeypatch.setattr(forward, "quantiles",
                            lambda *a: calls.append(a) or original(*a))
        push = self.make_push()
        summarize_bands(push)
        assert len(calls) == len(push.qoi_names)
        for samples, _ in calls:
            assert samples.ndim == 1 and samples.flags.c_contiguous

    def test_kept_density_owns_its_column(self):
        # a view into a wider array of columns would keep all of them alive
        push = self.make_push()
        bands = summarize_bands(push, densities=("q_1",))
        kept = owner = bands.densities["q_1"].samples
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == kept.nbytes
        assert np.array_equal(kept, samples(push)[:, 1])

    @pytest.mark.parametrize("qois", [1, 2, 9, 120, 125])
    @pytest.mark.parametrize("points", [9, 15, 35, 165])
    def test_column_blocks_equal_the_whole_push(self, monkeypatch, qois, points):
        # each column summarized is that column of the one (S, J) contraction, bit for bit
        rng = np.random.default_rng(qois * points)
        basis = rng.dirichlet(np.ones(points), size=10_000)
        push = PushResult(tuple(f"q_{j}" for j in range(qois)), basis,
                          rng.normal(size=(points, qois)), 0.0)
        seen = []
        monkeypatch.setattr(forward, "kde", lambda column, iqr: seen.append(column) or kde(
            column[:2], bandwidth=1.0))
        summarize_bands(push)
        whole = np.einsum("sg,gj->sj", basis, push.values)
        assert len(seen) == qois
        assert all(c.tobytes() == whole[:, j].tobytes() for j, c in enumerate(seen))

    def test_columns_of_a_fortran_ordered_table_equal_the_whole_push(self, monkeypatch):
        # a column's bits match the whole contraction only over a C-contiguous
        # table, which the interpolant makes of whatever order it is given
        table = np.asfortranarray(np.random.default_rng(8).normal(size=(15, 120)))
        grid = build_grid((3, 2), (Uniform(0.0, 1.0), Uniform(-1.0, 1.0)))
        compiled = TensorInterpolant(grid, table)
        surrogate = types.SimpleNamespace(
            qoi_names=tuple(f"q_{j}" for j in range(120)), compiled=compiled,
            extrapolation_mask=lambda pts: np.zeros(len(pts), dtype=bool))
        space = ParamSpace([ParamSpec("a", Uniform(0.0, 1.0)), ParamSpec("b", Uniform(-1.0, 1.0))])
        push = push_samples(surrogate, space, count=10_000, seed=8)
        seen = []
        monkeypatch.setattr(forward, "kde", lambda column, iqr: seen.append(column) or kde(
            column[:2], bandwidth=1.0))
        summarize_bands(push)
        whole = np.einsum("sg,gj->sj", push.basis, np.ascontiguousarray(table))
        assert len(seen) == 120
        assert all(c.tobytes() == whole[:, j].tobytes() for j, c in enumerate(seen))

    def test_memory_peak_is_a_few_columns(self):
        # a (10 000, 120) push is 9.6 MB; the basis of 15 grid points is 1.2
        # MB, and one column, its KDE work arrays and the two kept columns
        # are under 1.2 MB more
        rng = np.random.default_rng(5)
        push = PushResult(tuple(f"q_{j}" for j in range(120)),
                          rng.dirichlet(np.ones(15), size=10_000), rng.normal(size=(15, 120)), 0.0)
        tracemalloc.start()
        try:
            summarize_bands(push, densities=("q_0", "q_119"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6, peak

    def test_band_modes_equal_standalone_kde(self):
        # the IQR from the band quantiles must give the bandwidth kde computes alone;
        # the skewed column makes IQR/1.34 the smaller scale, the zero one is degenerate
        push = samples(self.make_push())
        cols = np.column_stack([push, np.exp(push[:, 0]), np.zeros(len(push))])
        bands = summarize_bands(columns_push(cols))
        alone = np.array([mode(kde(cols[:, j])) for j in range(cols.shape[1])])
        assert np.array_equal(bands.modes, alone)

    def test_kept_densities_equal_standalone_kde(self):
        push = samples(self.make_push())
        cols = np.column_stack([push, np.exp(push[:, 0])])
        skewed = columns_push(cols)
        bands = summarize_bands(skewed, densities=("q_1", "q_3"))
        assert sorted(bands.densities) == ["q_1", "q_3"]
        for name, j in (("q_1", 1), ("q_3", 3)):
            alone = kde(cols[:, j])
            assert bands.densities[name].bandwidth == alone.bandwidth
            assert bands.densities[name].grid.tobytes() == alone.grid.tobytes()
            assert bands.densities[name].density.tobytes() == alone.density.tobytes()
        assert summarize_bands(skewed).densities == {}

    def test_band_csv_round_trip(self, tmp_path):
        bands = summarize_bands(self.make_push())
        path = tmp_path / "bands.csv"
        write_bands_csv(bands, path, "config deadbeef")
        loaded = read_bands_csv(path)
        assert loaded.qoi_names == bands.qoi_names
        assert np.array_equal(loaded.modes, bands.modes)
        assert np.array_equal(loaded.q95, bands.q95)

    def test_identical_bands_give_zero_reduction(self):
        bands = summarize_bands(self.make_push())
        assert uncertainty_reduction(bands, bands) == 0.0

    def test_halved_widths_give_fifty_percent(self):
        bands = summarize_bands(self.make_push())
        center = 0.5 * (bands.q05 + bands.q95)
        halved = BandSummary(bands.qoi_names, bands.modes,
                             center - 0.25 * bands.widths(),
                             center + 0.25 * bands.widths(),
                             bands.extrapolated_fraction)
        assert uncertainty_reduction(bands, halved) == pytest.approx(50.0, abs=1e-12)

    def test_narrower_posterior_shrinks_bands(self):
        surrogate = FakeSurrogate([[1.0]])
        wide = push_samples(surrogate, normal_space(0.0, 1.0), count=20_000, seed=8)
        narrow = push_samples(surrogate, normal_space(0.0, 0.4), count=20_000, seed=9)
        reduction = uncertainty_reduction(summarize_bands(wide), summarize_bands(narrow))
        assert 50.0 < reduction < 70.0  # sigma ratio 0.4 -> about 60%

    def test_zero_prior_width_rejected(self):
        names = ("a",)
        prior = BandSummary(names, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))
        post = BandSummary(names, np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        with pytest.raises(ValueError):
            uncertainty_reduction(prior, post)

    def test_mismatched_qoi_lists_rejected(self):
        a = BandSummary(("a",), np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        b = BandSummary(("b",), np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        with pytest.raises(ValueError):
            uncertainty_reduction(a, b)
