"""Uncertain-parameter spaces: named, independent marginals, their nominal
boxes and joint sampling.

Each supported marginal is one class that samples, gives its nominal box
and places its nested knots by its own weight (see ``leja``):
``SymmetricLeja``, a uniform marginal on an interval, and
``WeightedGaussianLeja``, a Gaussian marginal; the configuration calls them
``Uniform`` and ``Gaussian``.  Building a marginal or a space loads neither
numpy nor ``leja``: their methods import them on first use, so a process that
only validates a configuration stays light.

Parameters are always the variables the rest of the toolkit sees; any
nonlinear reparametrisation (e.g. working with the log of a physically
positive coefficient) is applied by the user before building a space.  A
configuration may describe it in a parameter's free-text ``transform`` key,
which the toolkit does not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SymmetricLeja", "WeightedGaussianLeja", "Uniform", "Gaussian", "ParamSpec",
           "ParamSpace", "check_covariance", "symmetric_eigen"]

JACOBI_SWEEPS = 12  # symmetric_eigen's sweeps; random n <= 40 reach a fixed point within 8


@dataclass(frozen=True)
class SymmetricLeja:
    """Uniform marginal on [lo, hi]; its knots are the symmetric Leja points
    mapped affinely from [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"uniform bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"uniform interval needs lo < hi, got [{self.lo}, {self.hi}]")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return gen.uniform(self.lo, self.hi, size=count)

    def bounds(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def std(self) -> float:
        return (self.hi - self.lo) / math.sqrt(12.0)

    def knots(self, count: int) -> np.ndarray:
        from .leja import symmetric_reference
        # The midpoint form is the bitwise identity on [-1, 1], which keeps the
        # knots mirror symmetric; the clip keeps rounding inside [lo, hi].
        radius = 0.5 * (self.hi - self.lo)
        return (self.center + radius * symmetric_reference(count)).clip(self.lo, self.hi)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class WeightedGaussianLeja:
    """Gaussian marginal N(mean, std^2); its knots are the weighted Gaussian
    Leja points of that weight."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError(f"gaussian mean and std must be finite, got {self.mean}, {self.std}")
        if not self.std > 0.0:
            raise ValueError(f"gaussian std must be positive, got {self.std}")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return gen.normal(self.mean, self.std, size=count)

    def bounds(self) -> tuple[float, float]:
        """Nominal box used for box-style bookkeeping (penalty terms, step
        sizes, probe points); three standard deviations on either side of
        the mean."""
        return (self.mean - 3.0 * self.std, self.mean + 3.0 * self.std)

    @property
    def center(self) -> float:
        return self.mean

    def knots(self, count: int) -> np.ndarray:
        from .leja import gaussian_reference
        return self.mean + self.std * gaussian_reference(count)

    @property
    def domain(self) -> tuple[float, float]:
        """Range covered by the candidate grid; evaluations beyond it are
        treated as extrapolation."""
        from .leja import GAUSSIAN_CUTOFF
        r = GAUSSIAN_CUTOFF * self.std
        return (self.mean - r, self.mean + r)


# the config's names for the marginals
Uniform, Gaussian = SymmetricLeja, WeightedGaussianLeja


@dataclass(frozen=True)
class ParamSpec:
    """One uncertain parameter: a name and a marginal distribution."""

    name: str
    distribution: Uniform | Gaussian


class ParamSpace:
    """Ordered collection of mutually independent uncertain parameters.

    Immutable after construction.
    """

    def __init__(self, params):
        params = tuple(params)
        if not params:
            raise ValueError("a parameter space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"parameter names must be unique, got {names}")
        self.params = params

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def sample(self, count: int, seed) -> np.ndarray:
        """Draw ``count`` independent points, one marginal stream per column.

        Streams come from the counter-based Philox generator, so identical
        (space, count, seed) triples reproduce bit-for-bit on any platform.
        ``seed`` may be an int or a ``numpy.random.SeedSequence``.
        """
        import numpy as np
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        gen = np.random.Generator(np.random.Philox(seed))
        cols = [spec.distribution.draw(gen, count) for spec in self.params]
        return np.column_stack(cols)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension nominal (lo, hi) arrays."""
        import numpy as np
        los, his = zip(*(p.distribution.bounds() for p in self.params))
        return np.asarray(los, dtype=float), np.asarray(his, dtype=float)

    def widths(self) -> np.ndarray:
        lo, hi = self.bounds()
        return hi - lo


def symmetric_eigen(rows) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues, descending, and unit eigenvectors (as rows) of the
    symmetric matrix whose lower triangle is ``rows``: JACOBI_SWEEPS cyclic
    Jacobi sweeps (Demmel and Veselic 1992) in plain Python, so every host
    gives the same bits.  An off-diagonal entry too small to change its two
    diagonal entries is left, not rotated: no threshold depends on scale."""
    n = len(rows)
    a = [[float(rows[max(i, j)][min(i, j)]) for j in range(n)] for i in range(n)]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for p, q in [(p, q) for p in range(n) for q in range(p + 1, n)] * JACOBI_SWEEPS:
        apq, app, aqq = a[p][q], a[p][p], a[q][q]
        if abs(app) + abs(apq) == abs(app) and abs(aqq) + abs(apq) == abs(aqq):
            continue
        theta = (aqq - app) / (2.0 * apq)
        t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
        c = 1.0 / math.hypot(t, 1.0)
        s, tau = t * c, t * c / (1.0 + c)

        def rotate(g, h):
            return g - s * (h + g * tau), h + s * (g - h * tau)
        a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
        for r in (*range(p), *range(p + 1, q), *range(q + 1, n)):
            a[r][p], a[r][q] = a[p][r], a[q][r] = rotate(a[r][p], a[r][q])
        v[p], v[q] = map(list, zip(*map(rotate, v[p], v[q])))
    order = sorted(range(n), key=lambda i: -a[i][i])
    return [a[i][i] for i in order], [v[i] for i in order]


def check_covariance(rows) -> None:
    """Raise ValueError unless the square matrix ``rows`` (a sequence of
    equal-length rows of numbers) is a covariance: symmetric to
    1e-10 max(1, |trace|), with a finite trace, and with its smallest
    eigenvalue (``symmetric_eigen``) above -1e-10 max(|trace|, 1e-300)."""
    n = len(rows)
    trace = sum(rows[i][i] for i in range(n))
    atol = 1e-10 * max(1.0, abs(trace))
    if not all(abs(rows[i][j] - rows[j][i]) <= atol for i in range(n) for j in range(i + 1)):
        raise ValueError("covariance must be symmetric")
    if not math.isfinite(trace):  # finite entries here: a nan or inf one fails symmetry
        raise ValueError(f"covariance trace overflows the float range ({trace})")
    smallest = min(symmetric_eigen(rows)[0], default=0.0)
    if not smallest > -1e-10 * max(abs(trace), 1e-300):
        raise ValueError(f"covariance is not positive semi-definite (eigenvalue {smallest})")
