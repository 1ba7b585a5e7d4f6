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

The reference sequences (interval [-1, 1], standard normal) are a
tabulated head plus a greedy tail.  Their first 33 knots (level 17) are
module constants written out from the greedy construction as hex floats;
a longer prefix is built greedily over the candidate grid on first
request, grown lazily, cached at module level and shared by every family
instance.  Either way equal abscissas are bit-identical across
grids: a requirement for the evaluation cache to get hits on nested grids.
The marginals import this module only when they place knots, so a process
that only builds them, as ``load_config`` does, loads no numpy.
"""

from __future__ import annotations

import functools
import math

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


def _tabulated(text: str) -> tuple[float, ...]:
    return tuple(map(float.fromhex, text.split()))


SYMMETRIC_HEAD = _tabulated("""
    0x0.0p+0 0x1.0000000000000p+0 -0x1.0000000000000p+0 -0x1.279bbadc0980cp-1
    0x1.279bbadc0980cp-1 -0x1.ae0c9d9d3458dp-1 0x1.ae0c9d9d3458dp-1 -0x1.1aaf78feef5edp-2
    0x1.1aaf78feef5edp-2 -0x1.e2d38476f2a5bp-1 0x1.e2d38476f2a5bp-1 -0x1.bd1244a6223e2p-2
    0x1.bd1244a6223e2p-2 -0x1.76ffc115df656p-1 0x1.76ffc115df656p-1 0x1.03afb7e90ff98p-3
    -0x1.03afb7e90ff98p-3 -0x1.f5f6fd21ff2e5p-1 0x1.f5f6fd21ff2e5p-1 0x1.c917d6b65a9a9p-1
    -0x1.c917d6b65a9a9p-1 -0x1.4ebedfa43fe5dp-1 0x1.4ebedfa43fe5dp-1 -0x1.6b26bf8769ec3p-2
    0x1.6b26bf8769ec3p-2 -0x1.fc5ac471b4785p-1 0x1.fc5ac471b4785p-1 -0x1.9318fc5048170p-1
    0x1.9318fc5048170p-1 0x1.8bac710cb295fp-3 -0x1.8bac710cb295fp-3 0x1.067381d7dbf49p-1
    -0x1.067381d7dbf49p-1
""")
"""The first 33 knots of ``_symmetric_greedy()``.  To regenerate them
after a change to its grid or tie rules, print
``' '.join(map(float.hex, _symmetric_greedy().prefix(33).tolist()))`` and
paste the output here; ``tests/test_leja.py`` checks every prefix against
the greedy sequence bit for bit."""

GAUSSIAN_HEAD = _tabulated("""
    0x0.0p+0 -0x1.6a0902de00d1cp+0 0x1.c374bc6a7ef9ep+0 -0x1.5bd07c84b5dcdp+1
    0x1.8432ca57a786cp+1 0x1.a7d566cf41f22p-1 -0x1.fa95e9e1b089ap+1 0x1.12e147ae147aep+2
    -0x1.3d810624dd2f2p+2 -0x1.75e9e1b089a03p-1 0x1.5786c226809d5p+2 -0x1.7cdd2f1a9fbe8p+2
    0x1.366cf41f212d8p+1 0x1.992f1a9fbe76dp+2 -0x1.11db22d0e5604p+1 -0x1.bc6dc5d638866p+2
    0x1.db7b4a2339c0fp+1 0x1.da6b50b0f27bcp+2 -0x1.b288ce703afb8p+1 -0x1.f9844d013a92bp+2
    0x1.088f5c28f5c29p+3 0x1.417c1bda5119dp+0 -0x1.5c779a6b50b0fp+2 0x1.3875f6fd21ff3p+2
    -0x1.1c28f5c28f5c3p+3 0x1.25fd8adab9f56p+3 -0x1.7f141205bc01bp-2 -0x1.365a1cac08313p+3
    0x1.b7d07c84b5dcdp+2 -0x1.1b9096bb98c7ep+2 0x1.4000000000000p+3 -0x1.da5c91d14e3bdp+2
    0x1.764f765fd8adbp+2
""")
"""The first 33 knots of ``_gaussian_greedy()``; regenerated like
``SYMMETRIC_HEAD``."""


@functools.cache
def _symmetric_greedy() -> _GreedySequence:
    return _GreedySequence(_symmetric_grid(SYMMETRIC_CANDIDATES, 1.0), symmetrize=True)


@functools.cache
def _gaussian_greedy() -> _GreedySequence:
    candidates = _symmetric_grid(GAUSSIAN_CANDIDATES, GAUSSIAN_CUTOFF)
    return _GreedySequence(candidates, sqrt_weight=np.vectorize(math.exp)(-candidates**2 / 4.0))


def _reference(head: tuple[float, ...], greedy, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return np.array(head[:count]) if count <= len(head) else greedy().prefix(count)


def symmetric_reference(count: int) -> np.ndarray:
    """The first ``count`` knots of the symmetric Leja sequence on [-1, 1]."""
    return _reference(SYMMETRIC_HEAD, _symmetric_greedy, count)


def gaussian_reference(count: int) -> np.ndarray:
    """The first ``count`` knots of the weighted Leja sequence of the
    standard normal."""
    return _reference(GAUSSIAN_HEAD, _gaussian_greedy, count)
