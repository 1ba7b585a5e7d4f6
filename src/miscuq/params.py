"""Uncertain-parameter spaces: marginal distributions, nominal boxes, sampling.

Parameters are always the variables the rest of the toolkit sees; any
nonlinear reparametrisation (e.g. working with the log of a physically
positive coefficient) is applied by the user before building a space.  A
configuration may describe it in a parameter's free-text ``transform`` key,
which the toolkit does not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Uniform", "Gaussian", "ParamSpec", "ParamSpace"]


@dataclass(frozen=True)
class Uniform:
    """Uniform marginal on the interval [lo, hi]."""

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


@dataclass(frozen=True)
class Gaussian:
    """Gaussian marginal with the given mean and standard deviation."""

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
        """Nominal box used for box-style bookkeeping (penalty terms, step sizes);
        three standard deviations on either side of the mean."""
        return (self.mean - 3.0 * self.std, self.mean + 3.0 * self.std)

    @property
    def center(self) -> float:
        return self.mean


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
