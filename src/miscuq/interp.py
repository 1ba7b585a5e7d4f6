"""Tensor-product Lagrangian interpolation over Cartesian knot grids.

Evaluation uses the second (true) barycentric form per dimension, which is
stable for clustered nodes (Berrut & Trefethen, SIAM Review 2004).  The
per-dimension basis rows of each query point are multiplied out into one
row over the whole grid (their Kronecker product, in the grid's row-major
order), and the rows are contracted with the values by ``np.einsum`` in
row blocks of ``ROWS``, so no more than a block's basis rows are held at
once.  Without ``optimize`` einsum is numpy's own loop, which sums each
output element over the grid points in the same order however many rows a
block has, where BLAS picks a kernel and a thread split from the operands'
shapes: a point's value depends neither on the batch it is evaluated in
nor on the BLAS kernel or thread count.  A query coordinate that coincides
with a knot (to 1e-14 relative) gets that knot's unit basis row, avoiding
the 0/0 in the barycentric kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import NumericalError
from .leja import level_to_knots

__all__ = ["ROWS", "TensorGrid", "TensorInterpolant", "build_grid"]

_COINCIDENT_RTOL = 1e-14
ROWS = 1024  # points per basis block of a multi-point evaluation


@dataclass(frozen=True)
class TensorGrid:
    """Cartesian product of per-dimension knot prefixes.

    ``points`` enumerates the product in row-major order of the per-dimension
    indices (last dimension fastest).
    """

    per_dim_knots: tuple[np.ndarray, ...]
    points: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.per_dim_knots)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.per_dim_knots)

    def __len__(self) -> int:
        return self.points.shape[0]


def build_grid(beta, families) -> TensorGrid:
    """Grid with ``level_to_knots(beta_n)`` knots of ``families[n]`` per axis."""
    beta = tuple(int(b) for b in beta)
    families = tuple(families)
    if len(beta) != len(families):
        raise ValueError(f"beta has {len(beta)} components but {len(families)} families given")
    if any(b < 1 for b in beta):
        raise ValueError(f"beta components must be >= 1, got {beta}")
    per_dim = tuple(np.asarray(f.knots(level_to_knots(b)), dtype=float)
                    for f, b in zip(families, beta))
    mesh = np.meshgrid(*per_dim, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return TensorGrid(per_dim, points)


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    m = x.size
    if m == 1:
        return np.ones(1)
    span = float(x.max() - x.min())
    tol = _COINCIDENT_RTOL * max(1.0, float(np.abs(x).max()))
    diff = x[:, None] - x[None, :]
    off = ~np.eye(m, dtype=bool)
    if np.any(np.abs(diff[off]) <= tol):
        raise NumericalError("coincident knots within 1e-14 relative tolerance")
    # Scale by the capacity estimate span/4 to keep products of differences
    # away from overflow/underflow for long sequences.
    scale = span / 4.0
    w = 1.0 / np.prod(np.where(off, diff / scale, 1.0), axis=1)
    return w


def _axis_basis(knots: np.ndarray) -> tuple:
    """One axis's knots, barycentric weights and per-knot coincidence
    tolerances: the leading arguments of :func:`_basis_matrix`."""
    return knots, _barycentric_weights(knots), _COINCIDENT_RTOL * np.maximum(1.0, np.abs(knots))


def _basis_matrix(knots: np.ndarray, weights: np.ndarray, hit_tol: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """Barycentric cardinal-basis values, shape (len(t), len(knots)); a
    ``t`` within ``hit_tol`` (per knot) of a knot gets that knot's unit row."""
    d = t[:, None] - knots
    hits = np.abs(d) <= hit_tol
    d[hits] = 1.0
    kern = weights / d
    lam = kern / kern.sum(axis=1, keepdims=True)
    if hits.any():
        rows = np.flatnonzero(hits.any(axis=1))
        lam[rows] = 0.0
        # First matching knot wins when several are within tolerance.
        lam[rows, np.argmax(hits[rows], axis=1)] = 1.0
    return lam


class TensorInterpolant:
    """Lagrangian interpolant of (possibly vector-valued) samples on a grid.

    ``values`` holds one row per grid point, in the grid's enumeration order;
    a 1-D array is treated as a single output.  Immutable after construction,
    safe for concurrent evaluation.
    """

    def __init__(self, grid: TensorGrid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != len(grid):
            raise ValueError(
                f"values must have one row per grid point ({len(grid)}), got shape {values.shape}")
        self.grid = grid
        self.values = np.ascontiguousarray(values)
        self._bases = tuple(_axis_basis(k) for k in grid.per_dim_knots)

    def basis(self, points) -> np.ndarray:
        """Cardinal-basis rows of an (S, dim) array of points over the whole
        grid, (S, grid points): the row-wise Kronecker product of the
        per-dimension basis matrices.  The interpolant at the points is
        ``basis(points) @ values``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.grid.dim:
            raise ValueError(f"points have dimension {points.shape[1]}, grid has {self.grid.dim}")
        basis = _basis_matrix(*self._bases[0], points[:, 0])
        for n in range(1, self.grid.dim):
            lam = _basis_matrix(*self._bases[n], points[:, n])
            basis = (basis[:, :, None] * lam[:, None, :]).reshape(len(points),
                                                                   basis.shape[1] * lam.shape[1])
        return basis

    def evaluate_many(self, points) -> np.ndarray:
        """Evaluate at an (S, dim) array of points; returns (S, n_outputs),
        contracted per block of ``ROWS`` points.  No stage passes more than 64
        points (adapt's probes, calibrate's first simplices), so the loop runs
        once there.  It bounds the basis held for calibrate above ``ROWS``
        starts and for a library check of a surrogate on many points, such
        as a 10 000-point error estimate."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((len(points), self.values.shape[1]))
        for start in range(0, len(points), ROWS):
            np.einsum("sg,gj->sj", self.basis(points[start:start + ROWS]), self.values,
                      out=out[start:start + ROWS])
        return out
