"""Bayesian inverse step: least-squares calibration on a surrogate, noise
estimation, and a Gaussian (Laplace) approximation of the posterior.

The posterior mean is the misfit minimizer found by multistart Nelder-Mead,
an in-repo port with SciPy's coefficients that advances all starts
together; its covariance is ``sigma^2 (J^T J)^{-1}`` with J the
finite-difference Jacobian of the surrogate predictions at the minimizer
(the Gauss-Newton inverse Hessian of the negative log-posterior under a
flat prior).  Observations that leave a parameter direction unconstrained
make J^T J singular; that is a CalibrationError, not a posterior.

Functions taking a ``surrogate`` only need ``qoi_names`` and
``evaluate_many(points) -> (S, n_qois) array``; any object with that
surface works.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifacts import MALFORMED, NumericalError
from .params import ParamSpace, check_covariance, symmetric_eigen

__all__ = [
    "CalibrationError",
    "ObservationSet",
    "GaussianPosterior",
    "misfit",
    "nelder_mead",
    "NelderMeadResult",
    "find_map",
    "MapResult",
    "estimate_sigma",
    "SigmaEstimate",
    "laplace_covariance",
    "calibrate",
]


class CalibrationError(NumericalError):
    """The inverse step could not produce a usable result."""

log = logging.getLogger(__name__)

FD_STEP_REL = 1e-4          # central-difference step, relative to box width
PENALTY_SCALE = 1e3         # out-of-box penalty stiffness, see find_map
MAX_ITER = 2000             # Nelder-Mead iterations per start, see find_map
SIGMA_FLOOR_REL = 1e-12     # noise floor relative to the largest observation


def _observation(name: str, value: float, seen: set[str]) -> tuple[str, float]:
    """``(name, value)``, refusing a non-finite value or a name in ``seen``."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite observed value {value} for {name!r}")
    if name in seen:
        raise ValueError(f"repeated QoI name {name!r}")
    seen.add(name)
    return name, value


@dataclass(frozen=True)
class ObservationSet:
    """Measured values keyed by the surrogate QoI they correspond to."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("need at least one observation")
        seen: set[str] = set()
        for name, value in self.entries:
            _observation(name, value, seen)

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
        """Read a two-column CSV with header ``qoi,value``; errors name ``path`` and the line."""
        pairs, seen = [], set()
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a spreadsheet's BOM
            reader = csv.reader(fh)
            try:
                rows = (r for r in reader if r and not r[0].startswith("#"))
                if [c.strip() for c in next(rows, [])[:2]] != ["qoi", "value"]:
                    raise ValueError("expected header 'qoi,value'")
                for r in rows:
                    if len(r) < 2:
                        raise ValueError(f"row {r!r} has no value column")
                    pairs.append(_observation(r[0].strip(), float(r[1]), seen))
            except MALFORMED as exc:
                line = f", line {reader.line_num}" if reader.line_num else ""
                raise ValueError(f"{path}{line}: {exc}") from exc
        try:
            return cls(tuple(pairs))
        except ValueError as exc:  # no rows
            raise ValueError(f"{path}: {exc}") from exc


class _Misfit:
    """Sum of squared residuals between observations and surrogate output,
    one value per row of an (S, dim) point array."""

    def __init__(self, surrogate, obs: ObservationSet):
        names = list(surrogate.qoi_names)
        missing = [n for n in obs.names if n not in names]
        if missing:
            raise ValueError(f"observations reference unknown QoIs {missing}")
        self.surrogate = surrogate
        self.idx = np.array([names.index(n) for n in obs.names])
        self.target = obs.values
        self.calls = 0  # points evaluated

    def __call__(self, points) -> np.ndarray:
        r = self.target - self.predictions(points)
        return (r * r).sum(axis=1)

    def predictions(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.calls += len(points)
        return self.surrogate.evaluate_many(points)[:, self.idx]


def misfit(surrogate, obs: ObservationSet, v) -> float:
    """Sum over observations of (measured - predicted)^2 at ``v``."""
    return float(_Misfit(surrogate, obs)(np.asarray(v, dtype=float)[None, :])[0])


class NelderMeadResult(NamedTuple):
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


# SciPy's non-adaptive coefficients: reflection, expansion, contraction, shrink
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


def _sorted(s: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each start's vertices ``s`` and values ``f`` in ascending order of value."""
    ind, rows = np.argsort(f, axis=1), np.arange(len(f))[:, None]
    return s[rows, ind], f[rows, ind]


def _simplex_search(objective, simplices, tol_f, tol_x: float,
                    max_iter: int) -> list[NelderMeadResult]:
    """Nelder-Mead from each of B initial simplices, all advanced together.

    ``simplices`` is (B, N + 1, N); ``objective`` maps a (k, N) array of
    points to their k values; ``tol_f`` is one tolerance or one per start.
    Each start takes the floating-point steps of the non-adaptive,
    unbounded branch of SciPy's ``_minimize_neldermead``, so with rows that
    do not depend on each other it ends where a run of its own would.  Only
    the running starts are held.  A round makes at most three objective
    calls, rows in start order: their reflections, then the expansion or
    contraction points of those that did not accept their reflection, then
    the shrink points.  A start leaves when its simplex spread is within
    ``tol_x`` and its values within its ``tol_f``; all leave when the
    iteration count they share (from 1, as SciPy's ``nit``) reaches
    ``max_iter``.
    """
    s = np.array(simplices, dtype=float)
    B, _, N = s.shape
    f = np.asarray(objective(s.reshape(-1, N)), dtype=float).reshape(B, N + 1)
    s, f = _sorted(*_sorted(s, f))  # SciPy sorts twice after the initial simplex
    tol_f = np.broadcast_to(np.asarray(tol_f, dtype=float), (B,))
    start, results, iterations = np.arange(B), [None] * B, 1
    while True:
        converged = iterations < max_iter
        done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= tol_x)
                & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= tol_f)
                if converged else np.ones(start.size, dtype=bool))
        for j in np.flatnonzero(done):
            results[start[j]] = NelderMeadResult(s[j, 0].copy(), float(np.min(f[j])),
                                                 iterations, converged)
        if done.all():
            return results
        s, f, start, tol_f = s[~done], f[~done], start[~done], tol_f[~done]
        xbar = np.add.reduce(s[:, :-1], 1) / N
        worst = s[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = np.asarray(objective(xr), dtype=float)
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        inside = ~(expand | accept | outside)
        # second trial point (1 + c) xbar - c worst: the expansion, the outside
        # contraction, or the inside one (1 - psi) xbar + psi worst
        c = np.where(expand, _RHO * _CHI, np.where(outside, _PSI * _RHO, -_PSI))[:, None]
        x2 = (1 + c) * xbar - c * worst
        f2 = np.full(start.size, np.nan)
        if not accept.all():
            f2[~accept] = objective(x2[~accept])
        take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < f[:, -1]))
        take_r = accept | (expand & ~take2)
        s[:, -1] = np.where(take2[:, None], x2, np.where(take_r[:, None], xr, worst))
        f[:, -1] = np.where(take2, f2, np.where(take_r, fxr, f[:, -1]))
        shrink = (outside | inside) & ~take2
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + _SIGMA * (s[shrink, 1:] - best)
            f[shrink, 1:] = np.asarray(objective(s[shrink, 1:].reshape(-1, N)),
                                       dtype=float).reshape(-1, N)
        s, f = _sorted(s, f)
        iterations += 1


def nelder_mead(objective, x0, *, tol_f: float = 1e-12, tol_x: float = 1e-10,
                max_iter: int | None = None, initial_simplex=None) -> NelderMeadResult:
    """Simplex minimization of a scalar ``objective`` (reflection 1,
    expansion 2, contraction 0.5, shrink 0.5), terminating on simplex
    spread tolerances or ``max_iter`` iterations.

    One start of the batched engine, with ``objective`` applied row by
    row.  It takes the same steps as SciPy's ``minimize(method=
    "Nelder-Mead", options={"adaptive": False})``, bit for bit, including
    its default initial simplex (each coordinate scaled by 1.05, or set to
    0.00025 where it is 0).  ``max_iter=None`` is SciPy's default of 200 N
    iterations; SciPy's cap of 200 N objective evaluations, which applies
    alongside it, is not ported.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    f0 = objective(x0)
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the start point ({f0})")
    N = x0.size
    if initial_simplex is None:
        sim = np.tile(x0, (N + 1, 1))
        sim[1:][np.diag_indices(N)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    else:
        sim = np.asarray(initial_simplex, dtype=float)
        if sim.shape != (N + 1, N):
            raise ValueError(f"initial_simplex must have shape {(N + 1, N)}, got {sim.shape}")
    return _simplex_search(lambda points: np.array([objective(p) for p in points], dtype=float),
                           sim[None], tol_f, tol_x, 200 * N if max_iter is None else max_iter)[0]


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


def find_map(surrogate, obs: ObservationSet, space: ParamSpace, n_starts: int,
             seed) -> MapResult:
    """Multistart Nelder-Mead minimization of the observation misfit.

    Starts are prior samples, all advanced together: every round evaluates
    the trial points of all starts in one batched surrogate call.  The
    optimizer runs unconstrained, but a quadratic penalty
    ``mu * dist(v, box)^2`` discourages wandering far outside the
    parameter box, where the surrogate extrapolates with degrading
    fidelity; ``mu = PENALTY_SCALE * misfit(center) / diam^2``.  Moderate
    overflow of the box is expected and allowed.  A start where the
    objective is not finite is logged and skipped.

    The returned point minimizes the penalized objective over all starts;
    the per-start report carries both the raw misfit and the penalized
    objective.  ``surrogate_evals`` counts evaluated points.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    base = _Misfit(surrogate, obs)
    lo, hi = space.bounds()
    widths = hi - lo
    center = 0.5 * (lo + hi)
    diam_sq = float(np.einsum("i,i->", widths, widths))
    mu = PENALTY_SCALE * base(center)[0] / diam_sq

    def objective(points):
        d = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
        return base(points) + mu * (d * d).sum(axis=1)

    starts = space.sample(n_starts, seed)
    f0 = objective(starts)
    ok = np.isfinite(f0)
    failures = [(tuple(x0.tolist()), f"objective is not finite at the start point ({f})")
                for x0, f in zip(starts[~ok], f0[~ok])]
    for x0, reason in failures:
        log.warning("MAP start %s failed: %s", np.round(x0, 6), reason)
    if not ok.any():
        raise CalibrationError(
            f"all {n_starts} optimizer starts failed; first failure: {failures[0]}")
    starts = starts[ok]
    steps = np.vstack([np.zeros(space.dim), np.diag(0.05 * widths)])
    results = _simplex_search(objective, starts[:, None, :] + steps, 1e-15 * (1.0 + f0[ok]),
                              1e-9 * float(widths.max()), MAX_ITER)
    misfits = base(np.array([res.x for res in results]))
    records = [MultistartRecord(tuple(x0), tuple(res.x), float(m), res.fun, res.iterations)
               for x0, res, m in zip(starts, results, misfits)]
    best = min(range(len(records)), key=lambda i: (records[i].objective, i))
    point = np.asarray(records[best].point, dtype=float)
    log.info("MAP search: best objective %.6g after %d starts, %d surrogate evaluations",
             records[best].objective, n_starts, base.calls)
    _warn_competing_minima(records, obs.K, lo, hi)
    return MapResult(point, tuple(records), base.calls)


def _warn_competing_minima(records, K: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """One WARNING for each group of multistart end points other than the
    best one's, since the Laplace posterior covers the best minimum alone.

    Two ends are distinct when they differ by more than 1e-3 of the box
    width in some coordinate; each group is named by its lowest-objective
    end.  Ends are ranked and compared by the penalized misfit f that the
    search minimizes: the warning gives f / f_best, at least 1, and the
    relative likelihood exp(-(f - f_best) K / (2 f_best)), at most 1.  With
    the best end in the box f_best is its misfit m_best, and that is the
    likelihood under the noise estimate sigma^2 = m_best / K, the box
    penalty acting as a log-prior outside the box.  An exact best fit (f_best = 0) makes any
    other minimum infinitely less likely."""
    tol = 1e-3 * (hi - lo)
    heads: list[MultistartRecord] = []
    for rec in sorted(records, key=lambda r: r.objective):
        if all(np.any(np.abs(np.subtract(rec.point, h.point)) > tol) for h in heads):
            heads.append(rec)
    f_best = heads[0].objective
    for rec in heads[1:]:
        p = np.asarray(rec.point)
        where = ("outside" if np.any((p < lo - tol) | (p > hi + tol)) else
                 "on the boundary of" if np.any(np.minimum(abs(p - lo), abs(p - hi)) <= tol)
                 else "inside")
        ratio = (rec.objective / f_best if f_best > 0.0 else
                 math.inf if rec.objective > 0.0 else 1.0)
        likelihood = math.exp(-(ratio - 1.0) * K / 2.0)
        log.warning("MAP search: a competing minimum at (%s), %s the prior box: penalized "
                    "misfit %.4f times the best, relative likelihood %.2f; the Laplace "
                    "posterior ignores it",
                    ", ".join(f"{x:.5g}" for x in p), where, ratio, likelihood)


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


def laplace_covariance(surrogate, obs: ObservationSet, v_map, sigma: float,
                       space: ParamSpace) -> np.ndarray:
    """Gaussian posterior covariance sigma^2 (J^T J)^{-1} at the minimizer.

    J is the Jacobian of the surrogate predictions, by central differences
    with per-dimension step 1e-4 times the box width.  A CalibrationError
    refuses a non-finite J^T J (J's squares are on its diagonal), or names
    each direction whose J^T J eigenvalue is <= 1e-12 times the largest."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    base = _Misfit(surrogate, obs)
    v_map = np.asarray(v_map, dtype=float)
    widths = space.widths()
    n = space.dim
    h = FD_STEP_REL * widths
    p = base.predictions(np.vstack([v_map + np.diag(h), v_map - np.diag(h)]))
    J = ((p[:n] - p[n:]) / (2.0 * h)[:, None]).T
    with np.errstate(over="ignore"):  # refused below
        M = np.einsum("ki,kj->ij", J, J)
    if not np.isfinite(M).all():
        raise CalibrationError("J^T J is not finite: the surrogate's slopes overflow or are NaN")
    s, vt = map(np.array, symmetric_eigen(M.tolist()))
    rank = int(np.sum(s > s[0] * 1e-12))
    if rank < n:
        raise CalibrationError("the observations leave parameter direction(s) " + ", ".join(
            str(np.round(v, 6).tolist()) for v in vt[rank:]) + " unconstrained")
    cov = sigma**2 * np.einsum("k,ki,kj->ij", 1.0 / s, vt, vt)
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class GaussianPosterior:
    """Data-informed Gaussian parameter distribution."""

    mean: np.ndarray
    covariance: np.ndarray
    sigma_meas: float
    multistart: tuple[MultistartRecord, ...] = ()
    sigma_floored: bool = False

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean size {mean.size}")
        check_covariance(cov.tolist())
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    def marginal_std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def sample(self, count: int, seed) -> np.ndarray:
        """Draw mean + z sqrt(lambda) V^T, numpy's ``multivariate_normal(method="svd")``,
        with z standard normal rows from one Philox stream and V from ``symmetric_eigen``."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        s, vt = map(np.array, symmetric_eigen(self.covariance.tolist()))
        z = np.random.Generator(np.random.Philox(seed)).standard_normal((count, s.size))
        return self.mean + np.einsum("ck,kj->cj", z, np.sqrt(np.maximum(s, 0.0))[:, None] * vt)


def calibrate(surrogate, obs: ObservationSet, space: ParamSpace, n_starts: int,
              seed) -> GaussianPosterior:
    """Full inverse step: MAP search, noise estimate, Laplace covariance."""
    map_result = find_map(surrogate, obs, space, n_starts, seed)
    sig = estimate_sigma(surrogate, obs, map_result.point)
    cov = laplace_covariance(surrogate, obs, map_result.point, sig.sigma, space)
    posterior = GaussianPosterior(map_result.point, cov, sig.sigma, map_result.report,
                                  sig.floored)
    _warn_mass_outside_prior(posterior, space)
    return posterior


def _warn_mass_outside_prior(posterior: GaussianPosterior, space: ParamSpace) -> list[float]:
    """Each parameter's mass of the Gaussian marginal outside its prior's
    nominal box, in closed form, with one WARNING for each above 1%: the
    uniform prior has no mass there, a Gaussian one 0.27%."""
    outside = []
    for name, lo, hi, m, sd in zip(space.names, *space.bounds(), posterior.mean.tolist(),
                                   posterior.marginal_std().tolist()):
        below, above = (0.5 * math.erfc(d / (sd * math.sqrt(2.0))) if sd > 0.0 else
                        float(d < 0.0) for d in (m - lo, hi - m))
        outside.append(below + above)
        if outside[-1] > 0.01:
            log.warning("calibrate: the Laplace posterior N(%.4g, %.4g^2) of %s puts %.1f%% of "
                        "its mass outside the prior box [%.6g, %.6g] (%.1f%% below, %.1f%% "
                        "above); posterior draws there lie outside the prior's range",
                        m, sd, name, 100 * outside[-1], lo, hi, 100 * below, 100 * above)
    return outside
