"""Tensor interpolants: grid enumeration, interpolation property,
polynomial exactness, linearity."""

import tracemalloc

import numpy as np
import pytest

from miscuq import interp
from miscuq.interp import TensorInterpolant, build_grid
from miscuq.leja import SymmetricLeja, level_to_knots


def unit_families(dim):
    return tuple(SymmetricLeja(-1.0, 1.0) for _ in range(dim))


def eval_poly(coeffs, pts):
    """Evaluate a dense tensor polynomial sum_k c_k prod_n x_n^k_n."""
    pts = np.atleast_2d(pts)
    out = np.zeros(pts.shape[0])
    for k, c in np.ndenumerate(coeffs):
        term = np.full(pts.shape[0], c)
        for n, power in enumerate(k):
            term = term * pts[:, n] ** power
        out += term
    return out


class TestBuildGrid:
    def test_single_point_grid_is_midpoint(self):
        grid = build_grid((1, 1), unit_families(2))
        assert grid.points.tolist() == [[0.0, 0.0]]

    def test_three_by_one_grid(self):
        grid = build_grid((2, 1), unit_families(2))
        assert grid.points.tolist() == [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]

    def test_point_count_is_product(self):
        grid = build_grid((2, 2), unit_families(2))
        assert len(grid) == 9

    def test_row_major_enumeration(self):
        grid = build_grid((1, 2), unit_families(2))
        # second dimension varies fastest
        assert grid.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, -1.0]]

    def test_per_dim_lengths_follow_level_map(self):
        grid = build_grid((3, 2), unit_families(2))
        assert grid.shape == (level_to_knots(3), level_to_knots(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_grid((1, 1, 1), unit_families(2))

    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            build_grid((0, 1), unit_families(2))


class TestInterpolate:
    def test_constant_reproduced_anywhere(self):
        grid = build_grid((2, 2), unit_families(2))
        itp = TensorInterpolant(grid, np.full(len(grid), 3.25))
        for v in [(0.1, -0.9), (0.0, 0.0), (0.77, 0.13)]:
            assert itp.evaluate_many([v])[0][0] == pytest.approx(3.25, abs=1e-13)

    def test_univariate_square(self):
        grid = build_grid((2,), unit_families(1))
        assert grid.per_dim_knots[0].tolist() == [0.0, 1.0, -1.0]
        itp = TensorInterpolant(grid, np.array([0.0, 1.0, 1.0]))
        assert itp.evaluate_many([[0.5]])[0][0] == pytest.approx(0.25, abs=1e-14)

    def test_bilinear_closed_form(self):
        f = lambda x, y: 3 * x + 2 * y - x * y
        grid = build_grid((2, 2), unit_families(2))
        itp = TensorInterpolant(grid, [f(x, y) for x, y in grid.points])
        assert itp.evaluate_many([[0.3, -0.7]])[0][0] == pytest.approx(-0.29, abs=1e-13)

    def test_values_reproduced_at_grid_points(self):
        rng = np.random.default_rng(5)
        grid = build_grid((3, 2), unit_families(2))
        values = rng.uniform(-4, 4, len(grid))
        itp = TensorInterpolant(grid, values)
        for p, val in zip(grid.points, values):
            assert abs(itp.evaluate_many([p])[0][0] - val) <= 1e-12 * (1 + abs(val))

    @pytest.mark.parametrize("beta", [(2,), (4,), (2, 3), (3, 2), (2, 2, 2), (4, 2, 3)])
    def test_polynomial_exactness(self, beta):
        rng = np.random.default_rng(sum(beta))
        dim = len(beta)
        degrees = tuple(level_to_knots(b) - 1 for b in beta)
        coeffs = rng.uniform(-1, 1, tuple(d + 1 for d in degrees))
        grid = build_grid(beta, unit_families(dim))
        itp = TensorInterpolant(grid, eval_poly(coeffs, grid.points))
        test_pts = rng.uniform(-1, 1, (100, dim))
        err = np.abs(itp.evaluate_many(test_pts)[:, 0] - eval_poly(coeffs, test_pts))
        assert err.max() <= 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(11)
        grid = build_grid((3, 2), unit_families(2))
        f, g = rng.uniform(-1, 1, (2, len(grid)))
        a, b = 2.5, -1.75
        combined = TensorInterpolant(grid, a * f + b * g)
        itp_f = TensorInterpolant(grid, f)
        itp_g = TensorInterpolant(grid, g)
        pts = rng.uniform(-1, 1, (40, 2))
        lhs = combined.evaluate_many(pts)
        rhs = a * itp_f.evaluate_many(pts) + b * itp_g.evaluate_many(pts)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_vector_values_share_grid(self):
        grid = build_grid((2, 2), unit_families(2))
        vals = np.column_stack([[x + y for x, y in grid.points],
                                [x * y for x, y in grid.points]])
        itp = TensorInterpolant(grid, vals)
        out = itp.evaluate_many([[0.25, -0.5]])[0]
        assert out[0] == pytest.approx(-0.25, abs=1e-13)
        assert out[1] == pytest.approx(-0.125, abs=1e-13)

    def test_exact_hit_on_knot_returns_slice(self):
        grid = build_grid((3,), unit_families(1))
        vals = np.arange(len(grid), dtype=float)
        itp = TensorInterpolant(grid, vals)
        for j, knot in enumerate(grid.per_dim_knots[0]):
            assert itp.evaluate_many([[knot]])[0][0] == vals[j]

    def test_duplicate_knots_rejected(self):
        grid = build_grid((2,), unit_families(1))
        dup = grid.__class__((np.array([0.0, 1.0, 1.0 + 1e-16]),), grid.points)
        with pytest.raises(ValueError):
            TensorInterpolant(dup, np.zeros(3))

    def test_value_length_mismatch_rejected(self):
        grid = build_grid((2, 1), unit_families(2))
        with pytest.raises(ValueError):
            TensorInterpolant(grid, np.zeros(4))

    def test_dimension_mismatch_on_evaluate(self):
        grid = build_grid((2, 2), unit_families(2))
        itp = TensorInterpolant(grid, np.zeros(9))
        with pytest.raises(ValueError):
            itp.evaluate_many([[0.0, 0.0, 0.0]])[0]


def einsum_reference(itp, points):
    """The contraction evaluate_many used to make: the same per-dimension
    basis rows, contracted with the value tensor by a planned einsum."""
    points = np.atleast_2d(points)
    lams = [interp._basis_matrix(*basis, points[:, n]) for n, basis in enumerate(itp._bases)]
    letters = "abcdefghijklmnop"[: itp.grid.dim]
    subs = ",".join(f"s{c}" for c in letters) + "," + "".join(letters) + "q->sq"
    values = itp.values.reshape(itp.grid.shape + (-1,))
    return np.einsum(subs, *lams, values, optimize=True)


class TestFixedContraction:
    @pytest.mark.parametrize("count", [1, 64, 10_000])
    @pytest.mark.parametrize("beta", [(4,), (3, 2), (5, 3), (2, 3, 2)])
    def test_matches_einsum_reference(self, beta, count):
        rng = np.random.default_rng(100 * len(beta) + count)
        grid = build_grid(beta, unit_families(len(beta)))
        itp = TensorInterpolant(grid, rng.uniform(-5, 5, (len(grid), 3)))
        points = rng.uniform(-1.2, 1.2, (count, len(beta)))
        # every fourth point puts one coordinate exactly on a knot
        for i in range(0, count, 4):
            n = i % len(beta)
            knots = grid.per_dim_knots[n]
            points[i, n] = knots[i % len(knots)]
        ref = einsum_reference(itp, points)
        got = itp.evaluate_many(points)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(axis=0))

    @pytest.mark.parametrize("beta", [(3,), (3, 2), (2, 2, 3)])
    def test_grid_points_reproduce_values_exactly(self, beta):
        rng = np.random.default_rng(len(beta))
        grid = build_grid(beta, unit_families(len(beta)))
        values = rng.uniform(-5, 5, (len(grid), 2))
        itp = TensorInterpolant(grid, values)
        assert np.array_equal(itp.evaluate_many(grid.points), values)
        assert np.array_equal(einsum_reference(itp, grid.points), values)

    def test_no_contraction_planning(self, monkeypatch):
        # one fixed loop per call: no einsum path search, which would cost more
        # than a small contraction and could pick another summation order
        grid = build_grid((3, 2, 2), unit_families(3))
        itp = TensorInterpolant(grid, np.arange(len(grid), dtype=float))
        einsum = np.einsum

        def unplanned(*operands, optimize=False, **kwargs):
            assert not optimize, f"einsum called with optimize={optimize!r}"
            return einsum(*operands, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("einsum_path called")

        monkeypatch.setattr(np, "einsum", unplanned)
        monkeypatch.setattr(np, "einsum_path", forbidden)
        itp.evaluate_many(np.random.default_rng(3).uniform(-1, 1, (50, 3)))
        itp.evaluate_many([[0.1, 1.0, -0.3]])[0]

    def test_empty_point_set(self):
        grid = build_grid((3, 2), unit_families(2))
        itp = TensorInterpolant(grid, np.ones((len(grid), 4)))
        assert itp.evaluate_many(np.zeros((0, 2))).shape == (0, 4)


ROW_COUNTS = [1, 2, interp.ROWS, interp.ROWS + 1, interp.ROWS + 2, 2 * interp.ROWS + 1, 10_000]


class TestRowBlocks:
    """``evaluate_many`` past ``ROWS`` points contracts row blocks; its bits
    must be those of one contraction of the whole basis with the values."""

    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_equals_the_unblocked_product(self, count):
        # 15 x 11 knots: the 165-point box grid of the converge workload's surrogate
        grid = build_grid((8, 6), unit_families(2))
        itp = TensorInterpolant(grid, np.random.default_rng(8).uniform(-5, 5, (len(grid), 120)))
        points = np.random.default_rng(count).uniform(-1.2, 1.2, (count, 2))
        points[::7, 0] = grid.per_dim_knots[0][3]  # some coordinates on a knot
        whole = np.einsum("sg,gj->sj", itp.basis(points), itp.values)
        assert itp.evaluate_many(points).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_blocks_are_full_rows_then_the_remainder(self, monkeypatch, count):
        grid = build_grid((3, 2), unit_families(2))
        itp = TensorInterpolant(grid, np.ones((len(grid), 2)))
        lengths = []
        basis = TensorInterpolant.basis

        def recording(self, points):
            lengths.append(len(points))
            return basis(self, points)

        monkeypatch.setattr(TensorInterpolant, "basis", recording)
        itp.evaluate_many(np.zeros((count, 2)))
        tail = [count % interp.ROWS] if count % interp.ROWS else []
        assert lengths == [interp.ROWS] * (count // interp.ROWS) + tail

    def test_memory_is_one_block(self):
        # the whole (10 000, 165) basis is 13 MB; one block of ROWS rows is 1.4 MB
        grid = build_grid((8, 6), unit_families(2))
        itp = TensorInterpolant(grid, np.ones((len(grid), 2)))
        points = np.random.default_rng(9).uniform(-1, 1, (10_000, 2))
        tracemalloc.start()
        try:
            itp.evaluate_many(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak
