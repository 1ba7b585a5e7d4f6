"""Bayesian inverse step: least-squares calibration on a surrogate, noise
estimation, and a Gaussian (Laplace) approximation of the posterior.

The posterior mean is the misfit minimizer found by multistart Nelder-Mead;
its covariance is ``sigma^2 (J^T J)^{-1}`` with J the finite-difference
Jacobian of the surrogate predictions at the minimizer (the Gauss-Newton
inverse Hessian of the negative log-posterior under a flat prior).

Functions taking a ``surrogate`` only need ``qoi_names`` and
``evaluate(v) -> array``; any object with that surface works.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .params import ParamSpace

__all__ = [
    "CalibrationError",
    "ObservationSet",
    "GaussianPosterior",
    "misfit",
    "log_likelihood",
    "nelder_mead",
    "NelderMeadResult",
    "find_map",
    "MapResult",
    "estimate_sigma",
    "SigmaEstimate",
    "laplace_covariance",
    "LaplaceResult",
    "calibrate",
]


class CalibrationError(RuntimeError):
    """The inverse step could not produce a usable result."""

log = logging.getLogger(__name__)

FD_STEP_REL = 1e-4          # central-difference step, relative to box width
PENALTY_SCALE = 1e3         # out-of-box penalty stiffness, see find_map
SIGMA_FLOOR_REL = 1e-12     # noise floor relative to the largest observation


@dataclass(frozen=True)
class ObservationSet:
    """Measured values keyed by the surrogate QoI they correspond to."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("need at least one observation")

    @property
    def K(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.entries], dtype=float)

    @classmethod
    def from_pairs(cls, pairs) -> "ObservationSet":
        return cls(tuple((str(n), float(v)) for n, v in pairs))

    @classmethod
    def from_csv(cls, path: str | Path) -> "ObservationSet":
        """Read a two-column CSV with header ``qoi,value``."""
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        if not rows or [c.strip() for c in rows[0][:2]] != ["qoi", "value"]:
            raise ValueError(f"{path}: expected header 'qoi,value'")
        return cls.from_pairs((r[0].strip(), float(r[1])) for r in rows[1:])


class _Misfit:
    """Sum of squared residuals between observations and surrogate output."""

    def __init__(self, surrogate, obs: ObservationSet):
        names = list(surrogate.qoi_names)
        missing = [n for n in obs.names if n not in names]
        if missing:
            raise ValueError(f"observations reference unknown QoIs {missing}")
        self.surrogate = surrogate
        self.idx = np.array([names.index(n) for n in obs.names])
        self.target = obs.values
        self.calls = 0

    def __call__(self, v) -> float:
        self.calls += 1
        r = self.target - self.predictions(v)
        return float(r @ r)

    def predictions(self, v) -> np.ndarray:
        return self.surrogate.evaluate(v)[self.idx]


def misfit(surrogate, obs: ObservationSet, v) -> float:
    """Sum over observations of (measured - predicted)^2 at ``v``."""
    return _Misfit(surrogate, obs)(np.asarray(v, dtype=float))


def log_likelihood(surrogate, obs: ObservationSet, v, sigma: float) -> float:
    """Gaussian log-likelihood of the observations given parameters ``v``."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    m = misfit(surrogate, obs, v)
    return -obs.K * math.log(sigma * math.sqrt(2.0 * math.pi)) - m / (2.0 * sigma**2)


class NelderMeadResult(NamedTuple):
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(objective, x0, *, tol_f: float = 1e-12, tol_x: float = 1e-10,
                max_iter: int | None = None, initial_simplex=None) -> NelderMeadResult:
    """Simplex minimization (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5), terminating on simplex spread tolerances or ``max_iter``.

    Thin wrapper over ``scipy.optimize.minimize(method="Nelder-Mead")``,
    which implements exactly those coefficients.
    """
    from scipy.optimize import minimize  # deferred: only calibrate pays scipy's import

    x0 = np.asarray(x0, dtype=float)
    f0 = objective(x0)
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the start point ({f0})")
    options = {"xatol": tol_x, "fatol": tol_f, "adaptive": False}
    if max_iter is not None:
        options["maxiter"] = max_iter
    if initial_simplex is not None:
        options["initial_simplex"] = np.asarray(initial_simplex, dtype=float)
    res = minimize(objective, x0, method="Nelder-Mead", options=options)
    return NelderMeadResult(np.asarray(res.x, dtype=float), float(res.fun),
                            int(res.nit), bool(res.success))


def _box_distance_sq(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    d = np.maximum(lo - v, 0.0) + np.maximum(v - hi, 0.0)
    return float(d @ d)


@dataclass(frozen=True)
class MultistartRecord:
    start: tuple[float, ...]
    point: tuple[float, ...]
    misfit: float
    objective: float
    iterations: int


class MapResult(NamedTuple):
    point: np.ndarray
    report: tuple[MultistartRecord, ...]
    surrogate_evals: int


def find_map(surrogate, obs: ObservationSet, space: ParamSpace, n_starts: int = 20,
             seed=0, *, penalty_scale: float = PENALTY_SCALE, max_iter: int = 2000) -> MapResult:
    """Multistart Nelder-Mead minimization of the observation misfit.

    Starts are prior samples.  The optimizer runs unconstrained, but a
    quadratic penalty ``mu * dist(v, box)^2`` discourages wandering far
    outside the parameter box, where the surrogate extrapolates with
    degrading fidelity; ``mu = penalty_scale * misfit(center) / diam^2``.
    Moderate overflow of the box is expected and allowed.

    The returned point minimizes the penalized objective over all starts;
    the per-start report carries both the raw misfit and the penalized
    objective.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    base = _Misfit(surrogate, obs)
    lo, hi = space.bounds()
    widths = hi - lo
    center = 0.5 * (lo + hi)
    diam_sq = float(widths @ widths)
    mu = penalty_scale * base(center) / diam_sq

    def objective(v):
        return base(v) + mu * _box_distance_sq(np.asarray(v, dtype=float), lo, hi)

    starts = space.sample(n_starts, seed)
    xatol = 1e-9 * float(widths.max())
    records = []
    failures = []
    for x0 in starts:
        simplex = np.vstack([x0] + [x0 + 0.05 * widths[n] * np.eye(space.dim)[n]
                                    for n in range(space.dim)])
        try:
            fatol = 1e-15 * (1.0 + objective(x0))
            res = nelder_mead(objective, x0, tol_f=fatol, tol_x=xatol,
                              max_iter=max_iter, initial_simplex=simplex)
        except ValueError as exc:
            failures.append((tuple(x0), str(exc)))
            log.warning("MAP start %s failed: %s", np.round(x0, 6), exc)
            continue
        records.append(MultistartRecord(tuple(x0), tuple(res.x), base(res.x),
                                        float(res.fun), res.iterations))
    if not records:
        raise CalibrationError(
            f"all {n_starts} optimizer starts failed; first failure: {failures[0]}")
    best = min(range(len(records)), key=lambda i: (records[i].objective, i))
    point = np.asarray(records[best].point, dtype=float)
    log.info("MAP search: best objective %.6g after %d starts, %d surrogate evaluations",
             records[best].objective, n_starts, base.calls)
    return MapResult(point, tuple(records), base.calls)


class SigmaEstimate(NamedTuple):
    sigma: float
    floored: bool


def estimate_sigma(surrogate, obs: ObservationSet, v_map) -> SigmaEstimate:
    """Sample noise estimate sigma = sqrt(misfit(v_map) / K).

    Exact fits would give sigma = 0; those are floored at a scale-aware
    epsilon and flagged, which keeps the Laplace covariance defined for
    synthetic data generated directly from the surrogate.
    """
    m = misfit(surrogate, obs, v_map)
    sigma = math.sqrt(m / obs.K)
    floor = max(SIGMA_FLOOR_REL * float(np.abs(obs.values).max()), 1e-300)
    if sigma < floor:
        return SigmaEstimate(floor, True)
    return SigmaEstimate(sigma, False)


class LaplaceResult(NamedTuple):
    covariance: np.ndarray
    jacobian: np.ndarray
    warnings: tuple[str, ...]


def laplace_covariance(surrogate, obs: ObservationSet, v_map, sigma: float,
                       space: ParamSpace) -> LaplaceResult:
    """Gaussian posterior covariance sigma^2 (J^T J)^{-1} at the minimizer.

    J is the Jacobian of the surrogate predictions, by central differences
    with per-dimension step 1e-4 times the box width.  A rank-deficient
    J^T J falls back to the pseudo-inverse, reporting the flat directions.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    base = _Misfit(surrogate, obs)
    v_map = np.asarray(v_map, dtype=float)
    widths = space.widths()
    n = space.dim
    J = np.empty((obs.K, n))
    for d in range(n):
        h = FD_STEP_REL * float(widths[d])
        vp, vm = v_map.copy(), v_map.copy()
        vp[d] += h
        vm[d] -= h
        J[:, d] = (base.predictions(vp) - base.predictions(vm)) / (2.0 * h)
    M = J.T @ J
    u, s, vt = np.linalg.svd(M)
    warnings = []
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    if rank < n:
        flat = [f"direction {np.round(vt[i], 6).tolist()} is unconstrained by the data"
                for i in range(rank, n)]
        warnings.append("J^T J is singular; using the pseudo-inverse. " + " ".join(flat))
    inv_s = np.zeros_like(s)
    np.divide(1.0, s, out=inv_s, where=np.arange(n) < rank)
    cov = sigma**2 * (vt.T @ np.diag(inv_s) @ u.T)
    cov = 0.5 * (cov + cov.T)
    return LaplaceResult(cov, J, tuple(warnings))


@dataclass(frozen=True)
class GaussianPosterior:
    """Data-informed Gaussian parameter distribution."""

    mean: np.ndarray
    covariance: np.ndarray
    sigma_meas: float
    multistart: tuple[MultistartRecord, ...] = ()
    sigma_floored: bool = False
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean size {mean.size}")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * max(1.0, abs(np.trace(cov)))):
            raise ValueError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(cov)
        if eig.min() < -1e-10 * max(abs(np.trace(cov)), 1e-300):
            raise ValueError(f"covariance is not positive semi-definite (min eig {eig.min()})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def marginal_std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def sample(self, count: int, seed) -> np.ndarray:
        """Draw from N(mean, covariance) with the counter-based Philox stream."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        gen = np.random.Generator(np.random.Philox(seed))
        return gen.multivariate_normal(self.mean, self.covariance, size=count,
                                       method="svd")


def calibrate(surrogate, obs: ObservationSet, space: ParamSpace, n_starts: int = 20,
              seed=0, **map_options) -> GaussianPosterior:
    """Full inverse step: MAP search, noise estimate, Laplace covariance."""
    map_result = find_map(surrogate, obs, space, n_starts, seed, **map_options)
    sig = estimate_sigma(surrogate, obs, map_result.point)
    lap = laplace_covariance(surrogate, obs, map_result.point, sig.sigma, space)
    return GaussianPosterior(map_result.point, lap.covariance, sig.sigma,
                             map_result.report, sig.floored, lap.warnings)
