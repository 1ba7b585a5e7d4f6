"""Forward uncertainty propagation: push parameter samples through a
surrogate, estimate per-QoI densities by Gaussian-kernel KDE (linear
binning plus one FFT convolution), and summarize them as modes with
5%-95% quantile bands.

A push is kept factored: the draws' (S, G) basis rows over the
surrogate's G grid points, and the surrogate's (G, J) value table.  The
summary forms the (S, J) push one QoI column at a time, as one einsum of
the basis with that column of the table, and takes the column's
quantiles, KDE and mode from it.  The quantiles come from one sorted copy
of the column, with the arithmetic of ``np.quantile``'s ``linear`` method
but not its ``np.unique`` call, which loads ``numpy.ma``.  Beside the
basis the summary holds one column, its work arrays and the columns of
the densities it keeps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts

__all__ = [
    "PushResult",
    "PdfEstimate",
    "BandSummary",
    "push_samples",
    "kde",
    "mode",
    "quantiles",
    "summarize_bands",
    "uncertainty_reduction",
    "write_bands_csv",
    "read_bands_csv",
    "write_density_csv",
]

GRID_SIZE = 512


@dataclass(frozen=True)
class PushResult:
    """Surrogate outputs at parameter draws, factored: the (S, J) push, one
    column per QoI, is ``basis @ values``."""

    qoi_names: tuple[str, ...]
    basis: np.ndarray  # (S, G): each draw's basis row over the grid points
    values: np.ndarray  # (G, J): the surrogate's value at each grid point
    extrapolated_fraction: float


def push_samples(surrogate, distribution, count: int, seed) -> PushResult:
    """Draw ``count`` points from ``distribution`` (anything with a
    ``sample(count, seed)`` method: a ParamSpace or a GaussianPosterior) and
    push them through the surrogate's compiled interpolant, kept as the
    draws' basis rows and the interpolant's value table.  The surrogate
    needs ``qoi_names``, ``extrapolation_mask(points)`` and a ``compiled``
    interpolant with ``basis(points)`` and ``values``, as a MiscSurrogate
    has; ``evaluate_many`` alone, which suffices for ``bayes``, does not.

    The fraction of draws falling outside the surrogate's knot-family domain
    (where the polynomial extrapolates) is reported alongside.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    draws = distribution.sample(count, seed)
    compiled = surrogate.compiled
    frac = float(surrogate.extrapolation_mask(draws).mean())
    return PushResult(tuple(surrogate.qoi_names), compiled.basis(draws), compiled.values, frac)


@dataclass(frozen=True)
class PdfEstimate:
    """Gaussian-kernel density estimate on an equispaced grid."""

    samples: np.ndarray
    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    degenerate: bool = False


def _silverman_bandwidth(samples: np.ndarray, iqr: float | None) -> float:
    sd = float(np.std(samples, ddof=1))
    if iqr is None:
        q75, q25 = quantiles(samples, [0.75, 0.25])
        iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34)
    if scale <= 0.0:
        scale = sd
    return 0.9 * scale * samples.size ** (-0.2)


def kde(samples, bandwidth: float | None = None, *, iqr: float | None = None) -> PdfEstimate:
    """Gaussian-kernel KDE with Silverman's rule-of-thumb bandwidth.

    Default bandwidth: 0.9 min(std, IQR/1.34) S^(-1/5); the IQR is ``iqr``
    when the caller already has it (:func:`summarize_bands` does) and is
    computed from the samples otherwise.  Zero sample spread yields a
    degenerate estimate flagged as such (the mode is the common value, the
    bands collapse onto it).

    The estimate is computed by linear binning and one FFT convolution
    (Silverman, AS 176, 1982; Wand, JCGS 1994): each sample is split
    between its two neighbouring grid points in proportion to proximity,
    and the bin counts are convolved with the untruncated Gaussian kernel
    sampled at every grid offset, zero-padded so the circular convolution
    does not wrap.  The only approximation is the binning: at each grid
    point the error is at most (dx/bw)^2 / 8 of one kernel's peak
    1/(bw sqrt(2 pi)), dx being the grid spacing.  With the default grid
    and bandwidth dx/bw is 0.07-0.12 for a smooth unimodal sample (error
    below 1e-4 of the density's peak) and larger for a skewed one whose
    IQR is small against its range (0.26 and 3e-3 on the demo's posterior
    strains).
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size < 2:
        raise ValueError(f"need at least 2 samples, got {samples.size}")
    lo, hi = float(samples.min()), float(samples.max())
    if hi == lo:
        grid = np.full(GRID_SIZE, lo)
        return PdfEstimate(samples, 0.0, grid, np.zeros(GRID_SIZE), degenerate=True)
    bw = float(bandwidth) if bandwidth is not None else _silverman_bandwidth(samples, iqr)
    if not bw > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bw}")
    grid = np.linspace(lo - 3.0 * bw, hi + 3.0 * bw, GRID_SIZE)
    dx = (grid[-1] - grid[0]) / (GRID_SIZE - 1)
    pos = np.clip((samples - grid[0]) / dx, 0.0, GRID_SIZE - 1)
    left = np.minimum(pos.astype(np.intp), GRID_SIZE - 2)
    frac = pos - left
    counts = (np.bincount(left, weights=1.0 - frac, minlength=GRID_SIZE)
              + np.bincount(left + 1, weights=frac, minlength=GRID_SIZE))
    half = [math.exp(-0.5 * x * x) for x in (np.arange(GRID_SIZE) * (dx / bw)).tolist()]
    kernel = np.array(half[:0:-1] + half)  # mirrored; math.exp is the same on every host
    n_fft = 1 << (3 * GRID_SIZE - 3).bit_length()  # >= 3G - 2: no wrap-around
    conv = np.fft.irfft(np.fft.rfft(counts, n_fft) * np.fft.rfft(kernel, n_fft), n_fft)
    density = np.maximum(conv[GRID_SIZE - 1:2 * GRID_SIZE - 1], 0.0)
    density /= samples.size * bw * np.sqrt(2.0 * np.pi)
    return PdfEstimate(samples, bw, grid, density)


def mode(pdf: PdfEstimate) -> float:
    """Grid abscissa of the highest density; ties go to the smallest."""
    return float(pdf.grid[int(np.argmax(pdf.density))])


def quantiles(samples, probs) -> np.ndarray:
    """Empirical quantiles along axis 0 with linear interpolation between
    order statistics (Hyndman and Fan's definition 7, numpy's ``linear``);
    an (S, J) array gives one column of quantiles per QoI.

    The samples are sorted once, and each quantile is read at the virtual
    index (S-1) p with the two-sided interpolation of numpy's ``_lerp``, so
    the result equals ``np.quantile(samples, probs, axis=0,
    method="linear")`` bit for bit, except that where -0.0 ties with 0.0 a
    zero quantile may carry the other sign (a sort and numpy's partition
    may order the two zeros differently)."""
    samples = np.atleast_1d(np.asarray(samples, dtype=float))
    count = samples.shape[0]
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any((probs <= 0.0) | (probs >= 1.0)):
        raise ValueError(f"probabilities must lie in (0, 1), got {probs}")
    ordered = np.sort(samples, axis=0)
    index = (count - 1) * probs
    below = np.floor(index)
    # (S-1) p can round up to S-1 for p next to 1: both neighbours are then the last
    lo = np.minimum(below.astype(np.intp), count - 1)
    a, b = ordered[lo], ordered[np.minimum(lo + 1, count - 1)]
    gamma = (index - below).reshape(probs.shape + (1,) * (samples.ndim - 1))
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


@dataclass(frozen=True)
class BandSummary:
    """Per-QoI mode and 5%-95% quantile band; ``densities`` keeps the KDE of
    the QoIs :func:`summarize_bands` was asked to keep, by name."""

    qoi_names: tuple[str, ...]
    modes: np.ndarray
    q05: np.ndarray
    q95: np.ndarray
    extrapolated_fraction: np.ndarray
    densities: dict[str, PdfEstimate] = field(default_factory=dict, compare=False, repr=False)

    def widths(self) -> np.ndarray:
        return self.q95 - self.q05


def summarize_bands(push: PushResult, densities: tuple[str, ...] = ()) -> BandSummary:
    """KDE mode and empirical 5%/95% quantiles for every QoI column.

    Each column is the einsum of ``push.basis`` with ``push.values[:, j]``,
    which equals column j of the whole (S, J) contraction bit for bit while
    the table is C-contiguous, as ``TensorInterpolant`` stores it (see
    ``interp``).  One :func:`quantiles` call on the column also gives its
    IQR for the Silverman bandwidth.  The estimates of the QoIs named in
    ``densities`` are kept in the summary, each with its own column."""
    modes, q05, q95 = (np.empty(len(push.qoi_names)) for _ in range(3))
    kept = {}
    for j, name in enumerate(push.qoi_names):
        column = np.einsum("sg,g->s", push.basis, push.values[:, j])
        q05[j], q25, q75, q95[j] = quantiles(column, [0.05, 0.25, 0.75, 0.95])
        pdf = kde(column, iqr=float(q75 - q25))
        modes[j] = mode(pdf)
        if name in densities:
            kept[name] = pdf
    frac = np.full(len(push.qoi_names), push.extrapolated_fraction)
    return BandSummary(push.qoi_names, modes, q05, q95, frac, kept)


def uncertainty_reduction(prior_bands: BandSummary, post_bands: BandSummary) -> float:
    """Mean relative shrinkage of the quantile band widths, in percent."""
    if prior_bands.qoi_names != post_bands.qoi_names:
        raise artifacts.NumericalError("band summaries cover different QoI lists")
    w_prior = prior_bands.widths()
    if np.any(w_prior <= 0.0):
        bad = [n for n, w in zip(prior_bands.qoi_names, w_prior) if w <= 0.0]
        raise artifacts.NumericalError(f"prior band width must be positive, offending QoIs: {bad}")
    w_post = post_bands.widths()
    return float(100.0 * np.mean((w_prior - w_post) / w_prior))


def write_bands_csv(bands: BandSummary, path: str | Path, header_comment: str | None = None) -> None:
    rows = ([name] + [repr(float(col[i])) for col in
                      (bands.modes, bands.q05, bands.q95, bands.extrapolated_fraction)]
            for i, name in enumerate(bands.qoi_names))
    artifacts.write_csv(path, ["qoi", "mode", "q05", "q95", "extrapolated_fraction"], rows,
                        header_comment)


def read_bands_csv(path: str | Path) -> BandSummary:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != ["qoi", "mode", "q05", "q95", "extrapolated_fraction"]:
        raise ValueError(f"{path}: not a band summary file")
    names, cols = [], [[], [], [], []]
    for row in rows[1:]:
        names.append(row[0])
        for c, val in zip(cols, row[1:5]):
            c.append(float(val))
    return BandSummary(tuple(names), *(np.array(c) for c in cols))


def write_density_csv(pdf: PdfEstimate, path: str | Path, header_comment: str | None = None) -> None:
    rows = ([repr(float(x)), repr(float(d))] for x, d in zip(pdf.grid, pdf.density))
    artifacts.write_csv(path, ["abscissa", "density"], rows, header_comment)
