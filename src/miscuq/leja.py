"""The nested Leja knot sequences of the parameter marginals, and the
level-to-knots map.

Each supported marginal (defined in ``params``, re-exported here) places
its nested knots by its own weight:

* ``SymmetricLeja``, a uniform marginal on an interval: symmetric Leja
  points;
* ``WeightedGaussianLeja``, a Gaussian marginal: weighted Gaussian Leja
  points.

Both sequences are built greedily over a fixed dense candidate grid, which
makes them deterministic and bit-reproducible.  The objective for a
candidate ``x`` is the running product of distances ``|x - x_j|`` to the
knots already chosen, with factors multiplied in knot-insertion order; for
the Gaussian family the product is multiplied last by the weight factor
``sqrt(w(x))`` with ``w(x) = exp(-x^2 / 2)``.

Conventions (all needed for determinism):

* both families are seeded with ``x_1 = 0`` on their reference domain;
* symmetric family, even steps: argmax of the distance product, ties broken
  to the smallest abscissa except at step 2 where the positive extreme wins;
* symmetric family, odd steps (from the third knot on): the mirror image of
  the previous knot, which keeps every odd-length prefix symmetric as a set;
* Gaussian family: argmax every step, ties broken to the smallest abscissa;
  candidates live on [-10, 10], outside which the weight is negligible.

Reference sequences (interval [-1, 1], standard normal) are built on the
first ``knots`` call of their family, grown lazily, cached at module level
and shared by every family instance, so equal abscissas are always
bit-identical across grids: a requirement for the evaluation cache to get
hits on nested grids.  The marginals import this module only then, so a
process that only builds them, as ``load_config`` does, loads no numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from .params import SymmetricLeja, WeightedGaussianLeja

__all__ = [
    "level_to_knots",
    "symmetric_reference",
    "gaussian_reference",
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


@functools.cache
def symmetric_reference() -> _GreedySequence:
    """The symmetric Leja sequence on [-1, 1]."""
    return _GreedySequence(_symmetric_grid(SYMMETRIC_CANDIDATES, 1.0), symmetrize=True)


@functools.cache
def gaussian_reference() -> _GreedySequence:
    """The weighted Leja sequence of the standard normal."""
    candidates = _symmetric_grid(GAUSSIAN_CANDIDATES, GAUSSIAN_CUTOFF)
    return _GreedySequence(candidates, sqrt_weight=np.exp(-candidates**2 / 4.0))
