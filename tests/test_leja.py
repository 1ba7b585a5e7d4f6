"""Knot families: nestedness, symmetry, greedy optimality, affine maps.

The greedy-optimality checks use an independent brute-force scan,
re-implemented here from the documented construction: full distance
products per candidate (factors in knot-insertion order, weight factor
last), same candidate grids, same tie rules.
"""

import numpy as np
import pytest

from miscuq.leja import (
    GAUSSIAN_CANDIDATES,
    GAUSSIAN_CUTOFF,
    SYMMETRIC_CANDIDATES,
    SymmetricLeja,
    WeightedGaussianLeja,
    level_to_knots,
)


def brute_force_symmetric(count):
    """Greedy symmetric Leja points on [-1, 1], recomputed from scratch."""
    half = np.linspace(0.0, 1.0, (SYMMETRIC_CANDIDATES + 1) // 2)
    candidates = np.concatenate([-half[:0:-1], half])
    seq = [0.0]
    while len(seq) < count:
        step = len(seq) + 1
        if step % 2 == 1:
            seq.append(-seq[-1])
            continue
        objective = np.ones_like(candidates)
        for x in seq:
            objective = objective * np.abs(candidates - x)
        best = objective.max()
        ties = np.flatnonzero(objective == best)
        seq.append(float(candidates[ties[-1] if step == 2 else ties[0]]))
    return np.array(seq[:count])


def brute_force_gaussian(count):
    """Greedy weighted Gaussian Leja points, recomputed from scratch."""
    half = np.linspace(0.0, GAUSSIAN_CUTOFF, (GAUSSIAN_CANDIDATES + 1) // 2)
    candidates = np.concatenate([-half[:0:-1], half])
    sqrt_w = np.exp(-(candidates**2) / 4.0)
    seq = [0.0]
    while len(seq) < count:
        objective = np.ones_like(candidates)
        for x in seq:
            objective = objective * np.abs(candidates - x)
        objective = objective * sqrt_w
        best = objective.max()
        ties = np.flatnonzero(objective == best)
        seq.append(float(candidates[ties[0]]))
    return np.array(seq[:count])


class TestLevelToKnots:
    @pytest.mark.parametrize("level,count", [(1, 1), (2, 3), (4, 7)])
    def test_doubling_rule(self, level, count):
        assert level_to_knots(level) == count

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            level_to_knots(0)


class TestSymmetricLeja:
    def test_first_knot_is_midpoint(self):
        assert SymmetricLeja(-1.0, 1.0).knots(1).tolist() == [0.0]

    def test_first_three_knots(self):
        assert SymmetricLeja(-1.0, 1.0).knots(3).tolist() == [0.0, 1.0, -1.0]

    def test_matches_brute_force_scan(self):
        assert np.array_equal(SymmetricLeja(-1.0, 1.0).knots(9), brute_force_symmetric(9))

    def test_nested_prefixes_up_to_33(self):
        fam = SymmetricLeja(-1.0, 1.0)
        full = fam.knots(33)
        for count in range(1, 34):
            assert np.array_equal(fam.knots(count), full[:count])

    def test_set_symmetry_at_odd_prefixes(self):
        seq = SymmetricLeja(-1.0, 1.0).knots(33)
        for count in range(1, 34, 2):
            prefix = set(seq[:count].tolist())
            assert prefix == {-x for x in prefix}

    def test_knots_stay_in_interval(self):
        seq = SymmetricLeja(1130.0, 1450.0).knots(33)
        assert seq.min() >= 1130.0 and seq.max() <= 1450.0

    def test_equal_families_share_bits(self):
        a = SymmetricLeja(-5.0, 0.0).knots(17)
        b = SymmetricLeja(-5.0, 0.0).knots(17)
        assert a.tobytes() == b.tobytes()

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            SymmetricLeja(1.0, 1.0)


class TestWeightedGaussianLeja:
    def test_first_knot_is_mean(self):
        assert WeightedGaussianLeja(0.0, 1.0).knots(1).tolist() == [0.0]

    def test_matches_brute_force_scan(self):
        assert np.array_equal(WeightedGaussianLeja(0.0, 1.0).knots(9), brute_force_gaussian(9))

    def test_nested_prefixes_up_to_33(self):
        fam = WeightedGaussianLeja(0.0, 1.0)
        full = fam.knots(33)
        for count in range(1, 34):
            assert np.array_equal(fam.knots(count), full[:count])

    def test_scaled_family_maps_reference(self):
        ref = WeightedGaussianLeja(0.0, 1.0).knots(9)
        scaled = WeightedGaussianLeja(-3.0, 0.92).knots(9)
        assert np.array_equal(scaled, -3.0 + 0.92 * ref)

    def test_degenerate_std_rejected(self):
        with pytest.raises(ValueError):
            WeightedGaussianLeja(0.0, 0.0)


class TestAffineMaps:
    def test_interval_endpoints_and_midpoint(self):
        mapped = SymmetricLeja(1130.0, 1450.0).knots(3)
        assert sorted(mapped.tolist()) == [1130.0, 1290.0, 1450.0]

    def test_center_of_negative_interval(self):
        assert SymmetricLeja(-5.0, 0.0).knots(1).tolist() == [-2.5]

    def test_gaussian_center(self):
        assert WeightedGaussianLeja(-3.0, 0.92).knots(1).tolist() == [-3.0]

    def test_order_preserved(self):
        ref = SymmetricLeja(-1.0, 1.0).knots(9)
        mapped = SymmetricLeja(2.0, 10.0).knots(9)
        assert np.array_equal(np.argsort(mapped), np.argsort(ref))
