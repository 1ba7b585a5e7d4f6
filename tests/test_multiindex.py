"""Index sets: closure checks, combination weights, reduced margins.

The combination weights are cross-checked against a brute-force oracle that
expands the sparse sum as first-order mixed differences over all 1+N
components and collects the weight attached to each tensor term; exactness
on full tensor-product boxes pins the sign convention.
"""

from itertools import product

import numpy as np
import pytest

from miscuq.multiindex import (
    ExtIndex,
    MultiIndexSet,
    combination_coefficients,
    is_downward_closed,
    reduced_margin,
)


def E(alpha, *beta):
    return ExtIndex(alpha, tuple(beta))


def difference_operator_weights(entries):
    """Expand sum of mixed differences; returns {index: weight}, zeros dropped.

    Each entry contributes sum over s in {0,1}^(1+N) of (-1)^|s| times the
    tensor term at entry - s (terms with any zero component vanish).
    """
    weights = {}
    for e in entries:
        vec = (e.alpha, *e.beta)
        for s in product((0, 1), repeat=len(vec)):
            shifted = tuple(c - d for c, d in zip(vec, s))
            if any(c < 1 for c in shifted):
                continue
            key = ExtIndex(shifted[0], shifted[1:])
            weights[key] = weights.get(key, 0) + (-1) ** sum(s)
    return {k: w for k, w in weights.items() if w != 0}


def random_downward_closed(rng, dim, max_entries):
    entries = {E(1, *([1] * dim))}
    target = rng.integers(1, max_entries + 1)
    while len(entries) < target:
        margin = reduced_margin(MultiIndexSet(entries))
        entries.add(margin[rng.integers(0, len(margin))])
    return MultiIndexSet(entries)


class TestDownwardClosed:
    def test_unit_set_is_closed(self):
        assert is_downward_closed({E(1, 1, 1)})

    def test_small_closed_set(self):
        assert is_downward_closed({E(1, 1, 1), E(2, 1, 1), E(1, 2, 1)})

    def test_missing_root_detected(self):
        assert not is_downward_closed({E(2, 1, 1)})

    def test_constructor_rejects_open_sets(self):
        with pytest.raises(ValueError):
            MultiIndexSet([E(1, 1, 1), E(1, 3, 1)])

    def test_constructor_rejects_zero_components(self):
        with pytest.raises(ValueError):
            MultiIndexSet([E(0, 1)])

    def test_constructor_rejects_other_dim(self):
        with pytest.raises(ValueError, match="expected dim 3"):
            MultiIndexSet([E(1, 1, 1)], dim=3)
        with pytest.raises(ValueError, match="expected dim 2"):
            MultiIndexSet([], dim=2).with_entry(E(1, 1, 1, 1))

    def test_entries_sorted_canonically(self):
        s = MultiIndexSet([E(1, 2, 1), E(1, 1, 1), E(1, 1, 2), E(2, 1, 1)])
        assert s.entries == (E(1, 1, 1), E(1, 1, 2), E(1, 2, 1), E(2, 1, 1))

    def test_nonempty_sets_contain_unit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_downward_closed(rng, 2, 15)
            assert E(1, 1, 1) in s


class TestCombinationCoefficients:
    def test_singleton(self):
        assert combination_coefficients(MultiIndexSet([E(1, 1, 1)])) == {E(1, 1, 1): 1}

    def test_small_cross_set(self):
        s = MultiIndexSet([E(1, 1, 1), E(1, 2, 1), E(1, 1, 2), E(2, 1, 1)])
        assert combination_coefficients(s) == {
            E(1, 1, 1): -2, E(1, 2, 1): 1, E(1, 1, 2): 1, E(2, 1, 1): 1}
        assert difference_operator_weights(s.entries) == combination_coefficients(s)

    def test_full_tensor_box_collapses(self):
        # on a full box only the top corner survives
        box = MultiIndexSet([E(a, b1, b2) for a in (1, 2) for b1 in (1, 2) for b2 in (1, 2)])
        assert combination_coefficients(box) == {E(2, 2, 2): 1}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_difference_operator_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(60):
            s = random_downward_closed(rng, dim, 12)
            assert combination_coefficients(s) == difference_operator_weights(s.entries)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coefficients_sum_to_one(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(60):
            s = random_downward_closed(rng, dim, 40)
            assert sum(combination_coefficients(s).values()) == 1

    def test_interior_entries_cancel(self):
        rng = np.random.default_rng(300)
        for _ in range(40):
            s = random_downward_closed(rng, 2, 40)
            coeffs = combination_coefficients(s)
            members = set(s.entries)
            for e in s:
                diag = ExtIndex(e.alpha + 1, tuple(b + 1 for b in e.beta))
                if diag in members:
                    assert coeffs.get(e, 0) == 0

    def test_open_set_rejected(self):
        with pytest.raises(ValueError):
            combination_coefficients([E(2, 1)])


class TestReducedMargin:
    def test_margin_of_unit_set(self):
        s = MultiIndexSet([E(1, 1, 1)])
        assert set(reduced_margin(s)) == {E(2, 1, 1), E(1, 2, 1), E(1, 1, 2)}

    def test_margin_of_beta_box(self):
        s = MultiIndexSet([E(1, b1, b2) for b1 in (1, 2) for b2 in (1, 2)])
        expected = {E(2, 1, 1), E(1, 3, 1), E(1, 1, 3)}
        brute = {
            cand
            for e in s
            for cand in (ExtIndex(e.alpha + 1, e.beta),
                         *(ExtIndex(e.alpha, e.beta[:n] + (e.beta[n] + 1,) + e.beta[n + 1:])
                           for n in range(2)))
            if cand not in set(s.entries)
            and is_downward_closed(set(s.entries) | {cand})
        }
        assert set(reduced_margin(s)) == expected == brute

    def test_margin_disjoint_and_admissible(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            s = random_downward_closed(rng, 3, 25)
            margin = reduced_margin(s)
            assert not set(margin) & set(s.entries)
            for cand in margin:
                assert is_downward_closed(set(s.entries) | {cand})

    def test_margin_sorted(self):
        s = MultiIndexSet([E(1, 1, 1)])
        assert list(reduced_margin(s)) == sorted(reduced_margin(s))
