"""The parameter marginals, their nested Leja knot sequences, and the
level-to-knots map.

Each supported marginal is one class that samples, gives its nominal box
and places its nested knots by its own weight:

* ``SymmetricLeja``, a uniform marginal on an interval: symmetric Leja
  points;
* ``WeightedGaussianLeja``, a Gaussian marginal: weighted Gaussian Leja
  points.

Both are built greedily over a fixed dense candidate grid, which makes the
sequences deterministic and bit-reproducible.  The objective for a candidate
``x`` is the running product of distances ``|x - x_j|`` to the knots already
chosen, with factors multiplied in knot-insertion order; for the Gaussian
family the product is multiplied last by the weight factor ``sqrt(w(x))``
with ``w(x) = exp(-x^2 / 2)``.

Conventions (all needed for determinism):

* both families are seeded with ``x_1 = 0`` on their reference domain;
* symmetric family, even steps: argmax of the distance product, ties broken
  to the smallest abscissa except at step 2 where the positive extreme wins;
* symmetric family, odd steps (from the third knot on): the mirror image of
  the previous knot, which keeps every odd-length prefix symmetric as a set;
* Gaussian family: argmax every step, ties broken to the smallest abscissa;
  candidates live on [-10, 10], outside which the weight is negligible.

Reference sequences (interval [-1, 1], standard normal) are grown lazily,
cached at module level and shared by every family instance, so equal
abscissas are always bit-identical across grids: a requirement for the
evaluation cache to get hits on nested grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "level_to_knots",
    "SymmetricLeja",
    "WeightedGaussianLeja",
]

SYMMETRIC_CANDIDATES = 100_001
GAUSSIAN_CANDIDATES = 200_001
GAUSSIAN_CUTOFF = 10.0


def level_to_knots(i: int) -> int:
    """Number of knots used at level ``i``: 2i - 1."""
    if i < 1:
        raise ValueError(f"level must be >= 1, got {i}")
    return 2 * i - 1


def _symmetric_grid(count: int, hi: float) -> np.ndarray:
    # Built from the non-negative half so the grid is exactly mirror-symmetric.
    half = np.linspace(0.0, hi, (count + 1) // 2)
    return np.concatenate([-half[:0:-1], half])


class _GreedySequence:
    """Greedy Leja sequence over a fixed candidate grid, grown on demand."""

    def __init__(self, candidates: np.ndarray, sqrt_weight: np.ndarray | None = None,
                 symmetrize: bool = False):
        self.candidates = candidates
        self.sqrt_weight = sqrt_weight
        self.symmetrize = symmetrize
        self.knots: list[float] = [0.0]
        # Running product of |candidate - knot| in insertion order.
        self._dist = np.abs(candidates - self.knots[0])

    def prefix(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        while len(self.knots) < count:
            self._append_next()
        return np.asarray(self.knots[:count], dtype=float)

    def _append_next(self) -> None:
        step = len(self.knots) + 1
        if self.symmetrize and step % 2 == 1:
            x = -self.knots[-1]
        else:
            objective = self._dist if self.sqrt_weight is None else self._dist * self.sqrt_weight
            best = objective.max()
            ties = np.flatnonzero(objective == best)
            idx = ties[-1] if (self.symmetrize and step == 2) else ties[0]
            x = float(self.candidates[idx])
        self.knots.append(x)
        self._dist = self._dist * np.abs(self.candidates - x)


_symmetric_ref = _GreedySequence(_symmetric_grid(SYMMETRIC_CANDIDATES, 1.0), symmetrize=True)

_gauss_candidates = _symmetric_grid(GAUSSIAN_CANDIDATES, GAUSSIAN_CUTOFF)
_gauss_ref = _GreedySequence(_gauss_candidates, sqrt_weight=np.exp(-_gauss_candidates**2 / 4.0))


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
        # The midpoint form is the bitwise identity on [-1, 1], which keeps the
        # knots mirror symmetric; the clip keeps rounding inside [lo, hi].
        radius = 0.5 * (self.hi - self.lo)
        return np.clip(self.center + radius * _symmetric_ref.prefix(count), self.lo, self.hi)

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
        return self.mean + self.std * _gauss_ref.prefix(count)

    @property
    def domain(self) -> tuple[float, float]:
        """Range covered by the candidate grid; evaluations beyond it are
        treated as extrapolation."""
        r = GAUSSIAN_CUTOFF * self.std
        return (self.mean - r, self.mean + r)
