"""Uncertain-parameter spaces: named, independent marginals, their nominal
boxes and joint sampling.

Parameters are always the variables the rest of the toolkit sees; any
nonlinear reparametrisation (e.g. working with the log of a physically
positive coefficient) is applied by the user before building a space.  A
configuration may describe it in a parameter's free-text ``transform`` key,
which the toolkit does not read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The config's names for the marginals, defined in leja: leja importing params would be a cycle.
from .leja import SymmetricLeja as Uniform, WeightedGaussianLeja as Gaussian

__all__ = ["Uniform", "Gaussian", "ParamSpec", "ParamSpace"]


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
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        gen = np.random.Generator(np.random.Philox(seed))
        cols = [spec.distribution.draw(gen, count) for spec in self.params]
        return np.column_stack(cols)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension nominal (lo, hi) arrays."""
        los, his = zip(*(p.distribution.bounds() for p in self.params))
        return np.asarray(los, dtype=float), np.asarray(his, dtype=float)

    def widths(self) -> np.ndarray:
        lo, hi = self.bounds()
        return hi - lo

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.name}={p.distribution!r}" for p in self.params)
        return f"ParamSpace({inner})"
