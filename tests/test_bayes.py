"""Inverse step: misfit, Nelder-Mead, MAP search, noise estimate, Laplace
covariance.

The closed-form oracle for the linear-Gaussian case is computed here with
plain least-squares algebra: v_hat solves min |y - (A v + b)|^2, the noise
estimate is the mean squared residual, and the posterior covariance is
sigma^2 (A^T A)^{-1}.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from miscuq import bayes, cli, misc
from miscuq.bayes import (
    CalibrationError,
    GaussianPosterior,
    MAX_ITER,
    MultistartRecord,
    ObservationSet,
    _Misfit,
    _warn_competing_minima,
    _simplex_search,
    calibrate,
    estimate_sigma,
    find_map,
    laplace_covariance,
    misfit,
    nelder_mead,
)
from helpers import box_space, ridge_surrogate

DOCS = Path(__file__).resolve().parent.parent / "docs"


class LinearSurrogate:
    """Duck-typed stand-in: u(v) = A v + b."""

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.qoi_names = tuple(f"y_{k}" for k in range(len(self.b)))

    def evaluate(self, v):
        return self.A @ np.asarray(v, dtype=float) + self.b

    def evaluate_many(self, points):
        """Row by row, so subclasses overriding ``evaluate`` carry over."""
        return np.array([self.evaluate(v) for v in np.atleast_2d(points)])


def obs_for(surrogate, values):
    return ObservationSet.from_pairs(zip(surrogate.qoi_names, values))


def linear_gaussian_oracle(A, b, y):
    """Closed-form MAP / noise / covariance for the linear model."""
    A, b, y = (np.asarray(m, dtype=float) for m in (A, b, y))
    v_hat, *_ = np.linalg.lstsq(A, y - b, rcond=None)
    r = y - (A @ v_hat + b)
    sigma = math.sqrt(float(r @ r) / len(y))
    cov = sigma**2 * np.linalg.inv(A.T @ A)
    return v_hat, sigma, cov


class TestMisfit:
    def test_zero_at_generating_point(self):
        s = LinearSurrogate([[1.0, 2.0], [0.5, -1.0]], [0.3, -0.2])
        v_star = np.array([0.7, -0.4])
        obs = obs_for(s, s.evaluate(v_star))
        assert misfit(s, obs, v_star) == pytest.approx(0.0, abs=1e-28)

    def test_single_observation_square(self):
        s = LinearSurrogate([[1.0]], [0.0])  # u(v) = v_1
        obs = ObservationSet.from_pairs([("y_0", 2.0)])
        assert misfit(s, obs, [5.0]) == pytest.approx(9.0)

    def test_invariant_to_observation_order(self):
        s = LinearSurrogate([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.0])
        v = [0.3, 1.1]
        fwd = obs_for(s, [1.0, 2.0, 3.0])
        rev = ObservationSet.from_pairs(reversed(list(zip(s.qoi_names, [1.0, 2.0, 3.0]))))
        assert misfit(s, fwd, v) == pytest.approx(misfit(s, rev, v))

    def test_unknown_qoi_rejected(self):
        s = LinearSurrogate([[1.0]], [0.0])
        with pytest.raises(ValueError):
            misfit(s, ObservationSet.from_pairs([("nope", 1.0)]), [0.0])


class TestNelderMead:
    def test_quadratic_bowl(self):
        target = np.array([1.0, 2.0])
        res = nelder_mead(lambda x: float(((x - target) ** 2).sum()), [0.0, 0.0],
                          tol_f=1e-14, tol_x=1e-8, max_iter=2000)
        assert np.abs(res.x - target).max() < 1e-6

    def test_rosenbrock(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        res = nelder_mead(rosen, [-1.2, 1.0], tol_f=1e-14, tol_x=1e-9, max_iter=5000)
        assert res.iterations <= 5000
        assert np.abs(res.x - 1.0).max() < 1e-5

    def test_absolute_value(self):
        res = nelder_mead(lambda x: abs(float(x[0])), [3.0], tol_f=1e-14, tol_x=1e-8)
        assert abs(res.x[0]) <= 1e-6

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda x: float("nan"), [0.0])


def rosen_rows(points):
    """Generalized Rosenbrock, row by row: no row's value depends on another."""
    x = np.atleast_2d(points)
    return (100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1.0 - x[:, :-1]) ** 2).sum(axis=1)


def rosen(x):
    return float(rosen_rows(np.asarray(x)[None])[0])


def scipy_nelder_mead(objective, x0, *, tol_f, tol_x, max_iter=None, initial_simplex=None):
    from scipy.optimize import minimize

    options = {"xatol": tol_x, "fatol": tol_f, "adaptive": False}
    if max_iter is not None:
        options["maxiter"] = max_iter
    if initial_simplex is not None:
        options["initial_simplex"] = initial_simplex
    return minimize(objective, x0, method="Nelder-Mead", options=options)


def assert_same_bits(res, ref):
    assert np.asarray(res.x).tobytes() == np.asarray(ref.x).tobytes()
    assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert res.iterations == ref.nit
    assert res.converged == ref.success


@pytest.fixture(scope="module")
def demo_calibration(tmp_path_factory):
    """The demo's built calibration surrogate, its observations and space."""
    cfg = cli.load_config(DOCS / "demo_config.yaml", out=tmp_path_factory.mktemp("demo"))
    cli.cmd_build(cfg)
    surrogate = misc.deserialize(cfg.out_dir / cli.SURROGATE_FILE)
    return surrogate, ObservationSet.from_csv(DOCS / "demo_observations.csv"), cfg.space


class TestScipyReference:
    """The in-repo port takes exactly SciPy's steps: same x, fun, iteration
    count and convergence flag, bit for bit."""

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.5, -2.0, 3.0, 0.0]])
    def test_quadratic(self, x0):
        target = np.arange(1.0, len(x0) + 1.0)

        def bowl(x):
            return float(((x - target) ** 2).sum())

        kw = dict(tol_f=1e-14, tol_x=1e-8, max_iter=2000)
        assert_same_bits(nelder_mead(bowl, x0, **kw), scipy_nelder_mead(bowl, x0, **kw))

    def test_rosenbrock(self):
        kw = dict(tol_f=1e-14, tol_x=1e-9, max_iter=5000)
        res = nelder_mead(rosen, [-1.2, 1.0], **kw)
        assert res.converged
        assert_same_bits(res, scipy_nelder_mead(rosen, [-1.2, 1.0], **kw))

    @pytest.mark.parametrize("objective, x0, max_iter", [
        (lambda x: max(0.0, float(((x - [0.3, -0.7]) ** 2).sum()) - 1.0), [0.05, 1.0], 300),
        (lambda x: abs(x[0] - 1.0) + 2.0 * abs(x[1] + 0.5) + abs(x[0] - x[1]), [-1.0, 2.0],
         300),
        (lambda x: abs(float(x[0])), [3.0], 300),
        (lambda x: 1.0 if x[0] == 3.0 else float("nan"), [3.0], 20),
    ], ids=["flat-bottom", "kinks", "absolute-value", "nan-off-start"])
    def test_ties_shrinks_and_nan(self, objective, x0, max_iter):
        # equal values, failed contractions and NaN values: the comparisons'
        # strictness, the shrink step and the final min over the simplex
        # decide the result
        kw = dict(tol_f=1e-14, tol_x=1e-8, max_iter=max_iter)
        assert_same_bits(nelder_mead(objective, x0, **kw),
                         scipy_nelder_mead(objective, x0, **kw))

    def test_stops_at_max_iter(self):
        # the count starts at 1, as SciPy's nit, so a cap of 0 or 1 stops
        # before the first round with the sorted initial simplex
        for max_iter in (0, 1, 2, 37):
            kw = dict(tol_f=1e-14, tol_x=1e-9, max_iter=max_iter)
            res = nelder_mead(rosen, [-1.2, 1.0], **kw)
            assert not res.converged and res.iterations == max(max_iter, 1), max_iter
            assert_same_bits(res, scipy_nelder_mead(rosen, [-1.2, 1.0], **kw))

    def test_demo_misfit(self, demo_calibration):
        surrogate, obs, space = demo_calibration
        widths = space.widths()
        for x0 in space.sample(4, seed=3):
            simplex = np.vstack([x0, x0 + np.diag(0.05 * widths)])

            def objective(v):
                return misfit(surrogate, obs, v)

            kw = dict(tol_f=1e-15 * (1.0 + objective(x0)), tol_x=1e-9 * widths.max(),
                      max_iter=2000, initial_simplex=simplex)
            res = nelder_mead(objective, x0, **kw)
            assert res.converged
            assert_same_bits(res, scipy_nelder_mead(objective, x0, **kw))


def flat_bottom_rows(points):
    """Zero on a disk, so reflections tie and contractions fail often."""
    return np.maximum(0.0, (np.atleast_2d(points) ** 2).sum(axis=1) - 1.0)


class TestSimplexSearch:
    @pytest.mark.parametrize("rows, cap_3d", [(rosen_rows, 200), (flat_bottom_rows, 39)])
    def test_lockstep_equals_separate_runs(self, rows, cap_3d):
        rng = np.random.default_rng(31)
        for dim, max_iter in ((2, 5000), (3, cap_3d)):
            starts = rng.uniform(-2.0, 2.0, size=(9, dim))
            simplices = starts[:, None, :] + np.vstack([np.zeros(dim), 0.1 * np.eye(dim)])
            tol_f = 10.0 ** rng.uniform(-15, -6, size=9)
            calls = []

            def batched(points):
                calls.append(len(points))
                return rows(points)

            together = _simplex_search(batched, simplices, tol_f, 1e-9, max_iter)
            for sim, tf, res in zip(simplices, tol_f, together):
                alone = nelder_mead(lambda x: float(rows(x[None])[0]), sim[0], tol_f=tf,
                                    tol_x=1e-9, max_iter=max_iter, initial_simplex=sim)
                assert res.x.tobytes() == alone.x.tobytes()
                assert (res.fun, res.iterations, res.converged) == (
                    alone.fun, alone.iterations, alone.converged)
            # at most three batched calls per round after the initial simplex
            rounds = max(r.iterations for r in together) - 1
            assert calls[0] == 9 * (dim + 1)
            assert len(calls) <= 1 + 3 * rounds
        # in 3-D some starts converge and the others stop at max_iter
        assert {r.converged for r in together} == {True, False}

    def test_demo_starts_together_equal_each_alone(self, demo_calibration):
        # the surrogate's value at a point does not depend on the other points
        # of its batch, so the demo's misfit lets a start run in lockstep with
        # seven others end where it ends alone, bit for bit
        surrogate, obs, space = demo_calibration
        misfit_rows = _Misfit(surrogate, obs)
        widths = space.widths()
        starts = space.sample(8, 5)
        simplices = starts[:, None, :] + np.vstack([np.zeros(space.dim), np.diag(0.05 * widths)])
        tol_f = 1e-15 * (1.0 + misfit_rows(starts))
        tol_x = 1e-9 * float(widths.max())
        together = _simplex_search(misfit_rows, simplices, tol_f, tol_x, MAX_ITER)
        for sim, tf, res in zip(simplices, tol_f, together):
            alone = _simplex_search(misfit_rows, sim[None], tf, tol_x, MAX_ITER)[0]
            assert res.x.tobytes() == alone.x.tobytes()
            assert (res.fun, res.iterations, res.converged) == (
                alone.fun, alone.iterations, alone.converged)


class TestFindMap:
    def test_identity_surrogate_recovers_observation(self):
        s = LinearSurrogate(np.eye(2), np.zeros(2))
        v_star = np.array([0.25, -1.5])
        obs = obs_for(s, v_star)
        space = box_space([(-2, 2), (-3, 3)])
        res = find_map(s, obs, space, n_starts=5, seed=1)
        assert np.abs(res.point - v_star).max() < 1e-6

    def test_deterministic_given_seed(self):
        s = LinearSurrogate([[1.0, 0.3], [0.2, 1.4], [0.9, -0.7]], [0.1, -0.2, 0.05])
        obs = obs_for(s, [0.4, 0.6, -0.1])
        space = box_space([(-2, 2), (-2, 2)])
        a = find_map(s, obs, space, n_starts=4, seed=9)
        b = find_map(s, obs, space, n_starts=4, seed=9)
        assert np.array_equal(a.point, b.point)
        assert a.report == b.report

    def test_report_covers_all_starts(self):
        s = LinearSurrogate(np.eye(2), np.zeros(2))
        obs = obs_for(s, [0.0, 0.0])
        res = find_map(s, obs, box_space([(-1, 1), (-1, 1)]), n_starts=7, seed=2)
        assert len(res.report) == 7
        best = min(r.objective for r in res.report)
        assert misfit(s, obs, res.point) <= best + 1e-12
        assert res.surrogate_evals > 7

    def test_failed_starts_tolerated(self):
        class HalfBroken(LinearSurrogate):
            def evaluate(self, v):
                if v[0] < 0:
                    return np.full(len(self.b), np.nan)
                return super().evaluate(v)

        s = HalfBroken(np.eye(2), np.zeros(2))
        obs = ObservationSet.from_pairs([("y_0", 0.5), ("y_1", 0.25)])
        res = find_map(s, obs, box_space([(-1, 1), (-1, 1)]), n_starts=12, seed=4)
        assert 0 < len(res.report) < 12
        assert np.abs(res.point - [0.5, 0.25]).max() < 1e-5

    def test_all_starts_failing_raises(self):
        class Broken(LinearSurrogate):
            def evaluate(self, v):
                return np.full(len(self.b), np.nan)

        s = Broken(np.eye(2), np.zeros(2))
        obs = ObservationSet.from_pairs([("y_0", 0.5), ("y_1", 0.25)])
        with pytest.raises(CalibrationError):
            find_map(s, obs, box_space([(-1, 1), (-1, 1)]), n_starts=3, seed=4)

    def test_all_starts_failing_prints_plain_floats(self):
        class Broken(LinearSurrogate):
            def evaluate(self, v):
                return np.full(len(self.b), np.nan)

        s = Broken(np.eye(2), np.zeros(2))
        obs = ObservationSet.from_pairs([("y_0", 0.5), ("y_1", 0.25)])
        with pytest.raises(CalibrationError) as err:
            find_map(s, obs, box_space([(-1, 1), (-1, 1)]), n_starts=3, seed=4)
        message = str(err.value)
        assert "np.float64" not in message
        start = re.search(r"first failure: \(\(([^,]+), ([^)]+)\), 'objective", message)
        assert start and all(-1.0 <= float(x) <= 1.0 for x in start.groups()), message

    def test_demo_warns_of_its_competing_minimum(self, demo_calibration, caplog):
        # 8 of the demo's 20 starts end on the prior's upper temperature bound
        # with 1.1642 times the best misfit: relative likelihood exp(-0.1642 K / 2)
        surrogate, obs, space = demo_calibration
        cfg = cli.load_config(DOCS / "demo_config.yaml")
        find_map(surrogate, obs, space, cfg.n_starts, cli._stage_seed(cfg.seed, 1))
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1, warnings
        assert "competing minimum at (1450, -0.95976), on the boundary of the prior box" \
            in warnings[0]
        assert "misfit 1.1642 times the best, relative likelihood 0.66" in warnings[0]

    def test_demo_warns_of_laplace_mass_outside_the_prior(self, demo_calibration, caplog):
        # N(-0.149, 0.268^2) has 28.9% above log_powder_convection's upper
        # bound 0, where the uniform prior is zero; the temperature's
        # N(1386, 12.4^2) lies 5 std inside [1130, 1450]
        surrogate, obs, space = demo_calibration
        cfg = cli.load_config(DOCS / "demo_config.yaml")
        posterior = calibrate(surrogate, obs, space, cfg.n_starts, cli._stage_seed(cfg.seed, 1))
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING" and "outside the prior box" in r.getMessage()]
        assert warnings == [
            "calibrate: the Laplace posterior N(-0.1493, 0.2677^2) of log_powder_convection puts "
            "28.9% of its mass outside the prior box [-5, 0] (0.0% below, 28.9% above); "
            "posterior draws there lie outside the prior's range"]
        outside = bayes._warn_mass_outside_prior(posterior, space)
        assert outside[0] < 1e-6 and outside[1] == pytest.approx(0.289, abs=5e-4)

    def test_competing_minimum_is_compared_by_penalized_misfit(self, caplog):
        # an end outside the box with a lower raw misfit than the best end,
        # but a higher penalized one: ratio 3 / 2, likelihood exp(-0.5 K / 2)
        lo, hi = np.zeros(2), np.ones(2)
        records = [MultistartRecord((0.5, 0.5), (0.5, 0.5), 2.0, 2.0, 10),
                   MultistartRecord((0.9, 0.5), (1.5, 0.5), 1.0, 3.0, 10),
                   MultistartRecord((0.4, 0.5), (0.5002, 0.5), 2.0, 2.0, 10)]
        _warn_competing_minima(records, 4, lo, hi)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1, warnings
        assert "competing minimum at (1.5, 0.5), outside the prior box: penalized misfit " \
               "1.5000 times the best, relative likelihood 0.37" in warnings[0]

    def test_competing_minimum_of_an_exact_fit(self, caplog):
        lo, hi = np.zeros(2), np.ones(2)
        records = [MultistartRecord((0.5, 0.5), (0.5, 0.5), 0.0, 0.0, 10),
                   MultistartRecord((0.2, 0.5), (0.25, 0.5), 0.0, 0.0, 10),
                   MultistartRecord((0.9, 0.5), (1.0, 0.5), 1.0, 1.0, 10)]
        _warn_competing_minima(records, 4, lo, hi)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2, warnings
        assert "(0.25, 0.5), inside the prior box: penalized misfit 1.0000 times the best, " \
               "relative likelihood 1.00" in warnings[0]
        assert "(1, 0.5), on the boundary of the prior box: penalized misfit inf times the " \
               "best, relative likelihood 0.00" in warnings[1]

    def test_starts_match_single_start_runs(self):
        # the stub evaluates row by row, so running the starts together must
        # give each start exactly its own Nelder-Mead run: own simplex, own
        # fatol, same penalized objective
        s = LinearSurrogate([[1.0, 0.3], [0.2, 1.4], [0.9, -0.7]], [0.1, -0.2, 0.05])
        obs = obs_for(s, [2.4, 0.6, -0.1])  # MAP outside the box: the penalty acts
        space = box_space([(-1, 1), (-2, 1)])
        lo, hi = space.bounds()
        widths = hi - lo
        mu = 1e3 * misfit(s, obs, 0.5 * (lo + hi)) / float(widths @ widths)

        def objective(v):
            d = np.maximum(lo - v, 0.0) + np.maximum(v - hi, 0.0)
            return misfit(s, obs, v) + mu * float((d * d).sum())

        res = find_map(s, obs, space, n_starts=6, seed=3)
        for x0, record in zip(space.sample(6, 3), res.report):
            alone = nelder_mead(objective, x0, tol_f=1e-15 * (1.0 + objective(x0)),
                                tol_x=1e-9 * widths.max(), max_iter=2000,
                                initial_simplex=np.vstack([x0, x0 + np.diag(0.05 * widths)]))
            assert record.start == tuple(x0)
            assert np.array(record.point).tobytes() == alone.x.tobytes()
            assert (record.objective, record.iterations) == (alone.fun, alone.iterations)
            assert record.misfit == misfit(s, obs, alone.x)


class TestEstimateSigma:
    def test_equal_residuals(self):
        s = LinearSurrogate(np.zeros((5, 1)), np.zeros(5))
        obs = obs_for(s, [0.7] * 5)
        est = estimate_sigma(s, obs, [0.0])
        assert est.sigma == pytest.approx(0.7)
        assert not est.floored

    def test_given_residual_triple(self):
        s = LinearSurrogate(np.zeros((3, 1)), np.zeros(3))
        obs = obs_for(s, [1.0, 2.0, 2.0])
        est = estimate_sigma(s, obs, [0.0])
        assert est.sigma == pytest.approx(math.sqrt(3.0))

    def test_zero_residuals_floored(self):
        s = LinearSurrogate(np.eye(2), np.zeros(2))
        obs = obs_for(s, [1.0, 2.0])
        est = estimate_sigma(s, obs, [1.0, 2.0])
        assert est.floored
        assert est.sigma == pytest.approx(1e-12 * 2.0)


class TestLaplaceCovariance:
    def test_linear_model_matches_analytic(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(6, 2))
        b = rng.normal(size=6)
        s = LinearSurrogate(A, b)
        y = A @ np.array([0.4, -0.9]) + b + rng.normal(0, 0.05, 6)
        obs = obs_for(s, y)
        v_hat, sigma, cov = linear_gaussian_oracle(A, b, y)
        res = laplace_covariance(s, obs, v_hat, sigma, box_space([(-2, 2), (-2, 2)]))
        assert np.abs(res - cov).max() <= 1e-8 * np.abs(cov).max()

    def test_scalar_model_variance(self):
        c, K, sigma = 2.5, 4, 0.3
        s = LinearSurrogate(np.full((K, 1), c), np.zeros(K))
        obs = obs_for(s, [1.0] * K)
        res = laplace_covariance(s, obs, [0.4], sigma, box_space([(-2, 2)]))
        assert res[0, 0] == pytest.approx(sigma**2 / (K * c**2), rel=1e-9)

    def test_singular_direction_reported(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])  # second parameter unseen
        s = LinearSurrogate(A, np.zeros(3))
        obs = obs_for(s, [1.0, 2.0, 0.5])
        with pytest.raises(CalibrationError, match=r"direction\(s\) \[0\.0, 1\.0\] unconstrained"):
            laplace_covariance(s, obs, [1.0, 0.0], 0.1, box_space([(-2, 2), (-2, 2)]))

    @pytest.mark.parametrize("slope, offset", [(1e200, 0.0), (1.0, math.nan)],
                             ids=["overflow", "nan"])
    def test_non_finite_normal_matrix_refused(self, slope, offset):
        # J^T J overflows at slope 1e200, and a NaN prediction makes it NaN:
        # neither says that the observations leave a direction unconstrained
        s = LinearSurrogate(np.full((2, 2), slope), np.full(2, offset))
        obs = obs_for(s, [1.0, 2.0])
        with pytest.raises(CalibrationError, match=r"J\^T J is not finite"):
            laplace_covariance(s, obs, [0.0, 0.0], 0.1, box_space([(-2, 2), (-2, 2)]))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 3))
        s = LinearSurrogate(A, np.zeros(5))
        obs = obs_for(s, rng.normal(size=5))
        res = laplace_covariance(s, obs, rng.normal(size=3), 0.7,
                                 box_space([(-2, 2)] * 3))
        assert np.array_equal(res, res.T)
        assert np.linalg.eigvalsh(res).min() >= -1e-10 * np.trace(res)


class TestFullPipelineLinearGaussian:
    @pytest.mark.parametrize("K", [3, 5, 20])
    def test_matches_closed_form(self, K, caplog):
        rng = np.random.default_rng(40 + K)
        A = rng.uniform(-1.5, 1.5, size=(K, 2))
        b = rng.uniform(-0.5, 0.5, size=K)
        s = LinearSurrogate(A, b)
        v_true = np.array([0.3, -0.6])
        y = A @ v_true + b + rng.normal(0.0, 0.02, K)
        obs = obs_for(s, y)
        space = box_space([(-2, 2), (-2, 2)])
        v_hat, sigma, cov = linear_gaussian_oracle(A, b, y)
        posterior = calibrate(s, obs, space, n_starts=8, seed=3)
        assert np.abs(posterior.mean - v_hat).max() <= 1e-6 * max(1.0, np.abs(v_hat).max())
        assert abs(posterior.sigma_meas - sigma) <= 1e-6 * sigma
        assert np.abs(posterior.covariance - cov).max() <= 1e-6 * np.abs(cov).max()
        # every start ends at the one minimum
        assert "competing minimum" not in caplog.text
        # a posterior well inside the box [-2, 2]^2 puts under 1% outside it
        assert "outside the prior box" not in caplog.text
        assert max(bayes._warn_mass_outside_prior(posterior, space)) < 1e-6


class TestSelfConsistency:
    def test_map_error_shrinks_with_noise(self):
        surrogate = ridge_surrogate()
        space = box_space([(-1.0, 1.0), (-1.0, 1.0)])
        v_star = np.array([0.3, -0.55])
        clean = surrogate.evaluate(v_star)
        rng = np.random.default_rng(77)
        noise = rng.normal(size=clean.size)
        errors = []
        for sigma0 in (1e-2, 1e-4):
            obs = ObservationSet.from_pairs(zip(surrogate.qoi_names, clean + sigma0 * noise))
            res = find_map(surrogate, obs, space, n_starts=10, seed=5)
            errors.append(np.abs((res.point - v_star) / space.widths()).max())
        assert errors[1] < errors[0]
        assert errors[1] < 1e-3

    def test_zero_noise_recovery_through_misc_stack(self):
        surrogate = ridge_surrogate()
        space = box_space([(-1.0, 1.0), (-1.0, 1.0)])
        v_star = np.array([-0.2, 0.4])
        obs = ObservationSet.from_pairs(zip(surrogate.qoi_names, surrogate.evaluate(v_star)))
        res = find_map(surrogate, obs, space, n_starts=10, seed=2)
        assert np.abs((res.point - v_star) / space.widths()).max() < 1e-3


class TestGaussianPosterior:
    def test_sampling_reproducible(self):
        post = GaussianPosterior(np.array([1.0, -2.0]),
                                 np.array([[0.04, 0.01], [0.01, 0.09]]), 0.1)
        a = post.sample(100, seed=6)
        b = post.sample(100, seed=6)
        assert np.array_equal(a, b)

    def test_sample_moments(self):
        cov = np.array([[0.25, -0.1], [-0.1, 0.5]])
        post = GaussianPosterior(np.array([3.0, -1.0]), cov, 0.1)
        draws = post.sample(200_000, seed=21)
        assert np.abs(draws.mean(axis=0) - post.mean).max() < 0.01
        assert np.abs(np.cov(draws.T) - cov).max() < 0.01

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1)

    def test_scaling_observations_leaves_map_unchanged(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(5, 2))
        s1 = LinearSurrogate(A, np.zeros(5))
        s2 = LinearSurrogate(7.0 * A, np.zeros(5))
        y = A @ np.array([0.2, 0.5]) + rng.normal(0, 0.1, 5)
        space = box_space([(-2, 2), (-2, 2)])
        r1 = find_map(s1, obs_for(s1, y), space, n_starts=6, seed=8)
        r2 = find_map(s2, obs_for(s2, 7.0 * y), space, n_starts=6, seed=8)
        assert np.abs(r1.point - r2.point).max() < 1e-5
        m1 = misfit(s1, obs_for(s1, y), r1.point)
        m2 = misfit(s2, obs_for(s2, 7.0 * y), r2.point)
        assert m2 == pytest.approx(49.0 * m1, rel=1e-4)


class TestObservationCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("qoi,value\nu_1,0.25\nu_2,-1.5e-3\n")
        obs = ObservationSet.from_csv(path)
        assert obs.names == ("u_1", "u_2")
        assert obs.values.tolist() == [0.25, -0.0015]

    @pytest.mark.parametrize("row, match", [("u_2", "no value column"),
                                            ("u_2,nan", "non-finite"),
                                            ("u_2,-inf", "non-finite"),
                                            ("u_2,abc", "could not convert string to float"),
                                            ("u_1,0.25", "repeated QoI name 'u_1'"),
                                            ("u_1,0.5", "repeated QoI name 'u_1'")])
    def test_bad_row_rejected(self, tmp_path, row, match):
        # the error names the file and the line of the faulty row
        path = tmp_path / "obs.csv"
        path.write_text(f"qoi,value\nu_1,0.25\n{row}\n")
        with pytest.raises(ValueError, match=f"{re.escape(f'{path}, line 3: ')}.*{match}"):
            ObservationSet.from_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a spreadsheet's CSV export starts with one; it would hide the first line's '#'
        text = (DOCS / "demo_observations.csv").read_bytes()
        path = tmp_path / "obs.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert ObservationSet.from_csv(path) == ObservationSet.from_csv(DOCS / "demo_observations.csv")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("name,val\nu_1,0.25\n")
        with pytest.raises(ValueError):
            ObservationSet.from_csv(path)
