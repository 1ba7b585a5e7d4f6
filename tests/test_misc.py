"""Combination surrogates: build, telescoping, adaptivity, serialization."""

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from miscuq import interp, misc
from miscuq.interp import TensorInterpolant, build_grid
from miscuq.leja import SymmetricLeja, WeightedGaussianLeja
from miscuq.misc import (
    AdaptStop,
    BuildError,
    MiscSurrogate,
    SurrogateFormatError,
    _new_points,
    _surplus,
    adapt,
    build,
    deserialize,
    init_adapt,
    serialize,
)
from miscuq.multiindex import (
    ExtIndex,
    MultiIndexSet,
    combination_coefficients,
    is_downward_closed,
    reduced_margin,
)
from miscuq.oracle import (
    BeamAnalogModel,
    CachedOracle,
    EvalCache,
    EvalResult,
    FidelitySpec,
    point_key,
)


def E(alpha, *beta):
    return ExtIndex(alpha, tuple(beta))


class AnalyticModel:
    """Test backend evaluating python callables per fidelity."""

    def __init__(self, funcs, dim, qois, costs=(1.0,), domain=None):
        self.funcs = funcs
        self.dim = dim
        self.qoi_names = tuple(qois)
        self.fidelities = tuple(FidelitySpec(a + 1, c) for a, c in enumerate(costs))
        self.domain = domain
        self.calls = 0

    def dispatch(self, requests):
        out = {}
        for req in requests:
            self.calls += 1
            f = self.funcs[req.alpha]
            out[req.id] = EvalResult(values=tuple(f(req.params, q) for q in req.qois))
        return out

    def close(self):
        pass


def unit_families(dim):
    return tuple(SymmetricLeja(-1.0, 1.0) for _ in range(dim))


def beam_oracle(cache=None):
    return CachedOracle(BeamAnalogModel(), cache)


def beam_families():
    return (SymmetricLeja(1130.0, 1450.0), SymmetricLeja(-5.0, 0.0))


def random_beam_points(count, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(1130.0, 1450.0, count), rng.uniform(-5.0, 0.0, count)])


def count_surplus_calls(monkeypatch):
    """Counter of ``_surplus`` calls per candidate, successful or not."""
    calls = Counter()
    monkeypatch.setattr(misc, "_surplus",
                        lambda state, oracle, cand: calls.update([cand]) or _surplus(
                            state, oracle, cand))
    return calls


def charged_points(state):
    """Reference ledger: the distinct (fidelity, point) pairs on the grids
    of the charged entries, whose samples are kept."""
    return {(e.alpha, point_key(p)) for e in state.entry_values
            for p in build_grid(e.beta, state.surrogate.families).points}


def random_index_set(rng, dim, size):
    """Downward-closed set grown from the root by random reduced-margin
    entries, with fidelities 1 and 2."""
    index_set = MultiIndexSet([ExtIndex(1, (1,) * dim)])
    while len(index_set) < size:
        margin = [c for c in reduced_margin(index_set) if c.alpha <= 2]
        index_set = index_set.with_entry(margin[rng.integers(len(margin))])
    return index_set


def weighted_sum(surrogate, points):
    """Reference evaluation: the combination-coefficient-weighted sum of one
    tensor interpolant per nonzero-weight entry."""
    out = np.zeros((len(points), len(surrogate.qoi_names)))
    for entry, c in sorted(surrogate.coefficients.items()):
        grid = build_grid(entry.beta, surrogate.families)
        out += c * TensorInterpolant(grid, surrogate.values[entry]).evaluate_many(points)
    return out


def kronecker_compile(surrogate):
    """Reference compile: the weighted sum evaluated at every box grid point
    through each entry's full tensor basis, as the compile was first written."""
    return weighted_sum(surrogate, surrogate.compiled.grid.points)


class TestBuild:
    def test_singleton_set_gives_constant(self):
        oracle = beam_oracle()
        s = build(MultiIndexSet([E(1, 1, 1)]), oracle, beam_families(), ["u_1", "u_2"])
        center = oracle.eval_batch(1, [(1290.0, -2.5)], ["u_1", "u_2"])[0].values
        for v in random_beam_points(5, 0):
            assert s.evaluate(v) == pytest.approx(center, rel=1e-14)

    def test_full_tensor_collapses_to_tensor_interpolant(self):
        oracle = beam_oracle()
        families = beam_families()
        box = MultiIndexSet([E(1, b1, b2) for b1 in (1, 2) for b2 in (1, 2)])
        s = build(box, oracle, families, ["u_3"])
        grid = build_grid((2, 2), families)
        values = [r.values for r in oracle.eval_batch(1, grid.points, ["u_3"])]
        plain = TensorInterpolant(grid, np.asarray(values))
        for v in random_beam_points(50, 1):
            assert abs(s.evaluate(v)[0] - plain.evaluate(v)[0]) <= 1e-10

    def test_only_nonzero_coefficients_get_grids(self):
        oracle = beam_oracle()
        box = MultiIndexSet([E(1, b1, b2) for b1 in (1, 2) for b2 in (1, 2)])
        s = build(box, oracle, beam_families(), ["u_1"])
        assert set(s.values) == set(s.coefficients)
        assert E(1, 1, 1) not in s.coefficients  # interior index cancels

    def test_nested_entries_reuse_cache(self):
        oracle = beam_oracle()
        build(MultiIndexSet([E(1, 1, 1), E(1, 2, 1)]), oracle, beam_families(), ["u_1"])
        # the 3x1 grid contains the center: only 3 distinct points in total
        assert oracle.backend_points == {1: 3}

    def test_error_decreases_along_nested_sets(self):
        oracle = beam_oracle()
        model = BeamAnalogModel()
        pts = random_beam_points(200, 7)
        truth = np.array([model.evaluate(2, v, ["u_1"])[0] for v in pts])
        base = [E(1, 1, 1)]
        second = base + [E(1, 2, 1), E(1, 1, 2)]
        third = second + [E(1, 2, 2), E(1, 3, 1), E(2, 1, 1)]
        fourth = third + [E(1, 3, 2), E(1, 4, 1), E(2, 2, 1), E(2, 1, 2)]
        fifth = fourth + [E(1, 4, 2), E(1, 2, 3), E(1, 1, 3), E(2, 2, 2), E(2, 3, 1),
                          E(1, 5, 1), E(1, 5, 2), E(1, 3, 3)]
        sets = [base, second, third, fourth, fifth]
        errors = []
        for entries in sets:
            s = build(MultiIndexSet(entries), oracle, beam_families(), ["u_1"])
            errors.append(np.abs(s.evaluate_many(pts)[:, 0] - truth).max())
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_oracle_failure_lists_missing_points(self):
        def f(v, q):
            return v[0]

        model = AnalyticModel({1: f}, 1, ["q"], domain=((-0.5, 0.5),))
        oracle = CachedOracle(model)
        with pytest.raises(BuildError) as err:
            build(MultiIndexSet([E(1, 1), E(1, 2)]), oracle, unit_families(1), ["q"])
        assert err.value.failures  # endpoints lie outside the declared domain


class TestEvaluate:
    def test_reproduces_oracle_values_at_knots(self):
        oracle = beam_oracle()
        families = beam_families()
        box = MultiIndexSet([E(1, b1, b2) for b1 in (1, 2, 3) for b2 in (1, 2)])
        s = build(box, oracle, families, ["u_1", "e_40"])
        grid = build_grid((3, 2), families)
        expected = [r.values for r in oracle.eval_batch(1, grid.points, ["u_1", "e_40"])]
        for v, want in zip(grid.points, expected):
            got = s.evaluate(v)
            assert np.abs(got - np.asarray(want)).max() <= 1e-12 * (1 + np.abs(want).max())

    def test_linear_in_the_oracle(self):
        def f(v, q):
            return np.sin(v[0]) + v[1] ** 2

        def g(v, q):
            return 3.0 * (np.sin(v[0]) + v[1] ** 2)

        entries = MultiIndexSet([E(1, 1, 1), E(1, 2, 1), E(1, 1, 2), E(1, 2, 2)])
        s_f = build(entries, CachedOracle(AnalyticModel({1: f}, 2, ["q"])),
                    unit_families(2), ["q"])
        s_g = build(entries, CachedOracle(AnalyticModel({1: g}, 2, ["q"])),
                    unit_families(2), ["q"])
        for v in np.random.default_rng(3).uniform(-1, 1, (20, 2)):
            assert s_g.evaluate(v)[0] == pytest.approx(3.0 * s_f.evaluate(v)[0], rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        oracle = beam_oracle()
        s = build(MultiIndexSet([E(1, 1, 1)]), oracle, beam_families(), ["u_1"])
        with pytest.raises(ValueError):
            s.evaluate([1290.0])

    def test_extrapolation_mask(self):
        oracle = beam_oracle()
        s = build(MultiIndexSet([E(1, 1, 1)]), oracle, beam_families(), ["u_1"])
        mask = s.extrapolation_mask([(1290.0, -2.5), (1500.0, -2.5), (1290.0, 1.0)])
        assert mask.tolist() == [False, True, True]


class TestCompiled:
    def assert_matches_weighted_sum(self, s, points):
        ref = weighted_sum(s, points)
        assert np.abs(s.evaluate_many(points) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_two_fidelity_symmetric_families(self):
        entries = [E(1, b1, b2) for b1 in range(1, 6) for b2 in range(1, 4) if b1 + b2 <= 6]
        entries += [E(2, 1, 1), E(2, 2, 1), E(2, 1, 2), E(2, 3, 1)]
        s = build(MultiIndexSet(entries), beam_oracle(), beam_families(), ["u_1", "u_3", "e_40"])
        assert len(s.coefficients) > 4
        assert s.compiled.grid.beta == (5, 3)
        self.assert_matches_weighted_sum(s, random_beam_points(500, 11))

    def test_two_fidelity_gaussian_families(self):
        fams = (WeightedGaussianLeja(1290.0, 40.0), WeightedGaussianLeja(-2.5, 0.6))
        entries = [E(1, 1, 1), E(1, 2, 1), E(1, 3, 1), E(1, 1, 2), E(1, 2, 2), E(1, 1, 3),
                   E(2, 1, 1), E(2, 2, 1), E(2, 1, 2)]
        s = build(MultiIndexSet(entries), beam_oracle(), fams, ["u_2", "e_80"])
        pts = np.random.default_rng(12).normal((1290.0, -2.5), (40.0, 0.6), (500, 2))
        self.assert_matches_weighted_sum(s, pts)

    @pytest.mark.parametrize("kind", ["symmetric", "gaussian"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_prolongation_compile_matches_kronecker(self, dim, kind):
        def low(v, q):
            scale = 1.0 if q == "q" else 1e-3
            return scale * np.exp(0.3 * np.sum(v)) * np.cos(0.7 * v[0] - 0.2 * v[-1])

        def high(v, q):
            return low(v, q) + 0.01 * np.sin(v[0])

        families = (TestClosedForms.FAMILIES[kind],) * dim
        oracle = CachedOracle(AnalyticModel({1: low, 2: high}, dim, ["q", "r"], costs=(1.0, 4.0)))
        rng = np.random.default_rng(30 + dim)
        for size in (1, 4, 9, 16):
            s = build(random_index_set(rng, dim, size), oracle, families, ["q", "r"])
            ref = kronecker_compile(s)
            got = s.compiled.evaluate_many(s.compiled.grid.points)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=0)), s.index_set

    @pytest.mark.parametrize("kind", ["symmetric", "gaussian"])
    def test_prolongation_leads_with_identity(self, kind):
        family = TestClosedForms.FAMILIES[kind]
        for n_e in range(1, 14, 2):
            for n_b in range(n_e, 30, 2):
                matrix = misc._prolongation(family, n_e, n_b)
                assert matrix.shape == (n_b, n_e)
                assert matrix[:n_e].tobytes() == np.eye(n_e).tobytes(), (n_e, n_b)
                if n_b > n_e + 4:
                    continue
                # interpolation is exact for constants and, from two knots on,
                # lines, up to round-off that grows with the distance the box
                # knots extrapolate to (Gaussian tails: up to 6e-12 at 13 -> 17 knots)
                x = family.knots(n_b)
                assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-10
                if n_e > 1:
                    assert np.abs(matrix @ x[:n_e] - x).max() <= 1e-10 * np.abs(x).max()

    def test_one_interpolant_call_per_evaluation(self, monkeypatch):
        s = build(MultiIndexSet([E(1, 1, 1), E(1, 2, 1), E(1, 1, 2), E(2, 1, 1)]),
                  beam_oracle(), beam_families(), ["u_1"])
        assert not hasattr(s, "interpolants")
        calls = []
        original = interp.TensorInterpolant.evaluate_many
        monkeypatch.setattr(interp.TensorInterpolant, "evaluate_many",
                            lambda self, pts: calls.append(1) or original(self, pts))
        s.evaluate_many(random_beam_points(10, 13))
        s.evaluate((1290.0, -2.5))
        assert len(calls) == 2

    def test_surplus_equals_rebuilt_difference(self):
        oracle = beam_oracle()
        qois = ["u_1", "u_3", "e_20"]
        state = init_adapt(oracle, beam_families(), qois)
        adapt(state, oracle, AdaptStop(max_work=300.0))
        assert len(state.index_set) >= 10
        base = state.surrogate.evaluate_many(state.probe_points)
        registered = {f.alpha for f in oracle.fidelities}
        margin = [c for c in reduced_margin(state.index_set) if c.alpha in registered]
        assert {c.alpha for c in margin} == {1, 2}
        # the rebuilt difference carries the round-off of the surrogate values
        # themselves, so where the surplus nearly vanishes (at knots of the
        # candidate's grid) agreement is only down to that level, per QoI
        roundoff = 1e-13 * np.abs(base).max(axis=0)
        for cand in margin:
            rebuilt = build(state.index_set.with_entry(cand), oracle, beam_families(), qois)
            want = rebuilt.evaluate_many(state.probe_points) - base
            got = _surplus(state, oracle, cand)
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + roundoff), cand


class TestProbeGrid:
    @pytest.mark.parametrize("count", [1, 64, 1000])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_unit_points_equal_scipy_halton(self, dim, count):
        from scipy.stats import qmc

        want = qmc.Halton(d=dim, scramble=False).random(count)
        got = misc._probe_grid((SymmetricLeja(0.0, 1.0),) * dim, count)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_spans_the_probe_intervals(self):
        fams = (SymmetricLeja(1130.0, 1450.0), WeightedGaussianLeja(-2.5, 0.6))
        pts = misc._probe_grid(fams, 64)
        lo, hi = np.array([f.probe_interval for f in fams]).T
        assert np.all((pts >= lo) & (pts < hi))
        assert pts[0].tolist() == lo.tolist()


class TestClosedForms:
    """The adaptive bookkeeping is a function of the index set alone."""

    FAMILIES = {"symmetric": SymmetricLeja(-1.0, 1.0),
                "gaussian": WeightedGaussianLeja(0.5, 2.0)}

    def margins(self, dim, seed):
        rng = np.random.default_rng(seed)
        for size in (1, 3, 6, 10):
            index_set = random_index_set(rng, dim, size)
            for cand in reduced_margin(index_set):
                if cand.alpha <= 2:
                    yield index_set, cand

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weight_change(self, dim):
        # one-hot probe values make the surplus the vector of weight changes
        for index_set, cand in self.margins(dim, seed=dim):
            entries = sorted(set(index_set) | {cand})
            state = SimpleNamespace(probe_points=np.zeros((len(entries), 1)),
                                    surrogate=SimpleNamespace(families=(), qoi_names=("q",)),
                                    probe_values={e: np.eye(len(entries))[:, [i]]
                                                  for i, e in enumerate(entries)})
            old = combination_coefficients(index_set)
            new = combination_coefficients(index_set.with_entry(cand))
            want = [new.get(e, 0) - old.get(e, 0) for e in entries]
            assert _surplus(state, None, cand)[:, 0].tolist() == want, (index_set, cand)

    @pytest.mark.parametrize("kind", ["symmetric", "gaussian"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_new_point_count(self, dim, kind):
        families = (self.FAMILIES[kind],) * dim
        for index_set, cand in self.margins(dim, seed=10 + dim):
            committed = {point_key(p) for e in index_set if e.alpha == cand.alpha
                         for p in build_grid(e.beta, families).points}
            fresh = {point_key(p) for p in build_grid(cand.beta, families).points} - committed
            assert _new_points(cand.beta) == len(fresh), (index_set, cand)


class TestAdapt:
    def test_budget_zero_keeps_minimal_set(self):
        oracle = beam_oracle()
        state = init_adapt(oracle, beam_families(), ["u_1"])
        adapt(state, oracle, AdaptStop(max_work=0.0))
        assert state.index_set.entries == (E(1, 1, 1),)

    def test_structural_invariants_on_smooth_function(self):
        def f(v, q):
            return np.exp(0.8 * v[0] + 0.5 * v[1])

        oracle = CachedOracle(AnalyticModel({1: f}, 2, ["q"]))
        state = init_adapt(oracle, unit_families(2), ["q"])
        adapt(state, oracle, AdaptStop(max_work=30.0))
        assert is_downward_closed(state.index_set.entries)
        assert len(state.committed) >= 3
        profits = [p for _, p in state.committed]
        smoothed = np.convolve(profits, np.ones(3) / 3.0, mode="valid")
        assert all(b <= a * 1.0 + 1e-12 for a, b in zip(smoothed, smoothed[1:]))

    def test_anisotropy_detected(self):
        def f(v, q):
            return np.cos(2.0 * v[0])  # no v2 dependence

        oracle = CachedOracle(AnalyticModel({1: f}, 2, ["q"]))
        state = init_adapt(oracle, unit_families(2), ["q"])
        adapt(state, oracle, AdaptStop(max_work=40.0))
        committed_beta2 = max(e.beta[1] for e in state.index_set)
        assert committed_beta2 <= 2
        assert max(e.beta[0] for e in state.index_set) >= 3

    def test_expensive_fidelity_committed_sparingly(self):
        for budget in (60.0, 120.0, 200.0):
            oracle = beam_oracle()
            state = init_adapt(oracle, beam_families(), ["u_1", "u_3", "e_20"])
            adapt(state, oracle, AdaptStop(max_work=budget))
            n_high = sum(1 for e in state.index_set if e.alpha == 2)
            n_low = sum(1 for e in state.index_set if e.alpha == 1)
            assert n_high <= n_low

    def test_work_ledger_consistent(self):
        oracle = beam_oracle()
        state = init_adapt(oracle, beam_families(), ["u_1"])
        adapt(state, oracle, AdaptStop(max_work=80.0))
        assert is_downward_closed(state.entry_values)
        assert state.work_spent == sum(state.work_by_alpha.values())
        # integer cost weights: the ledger is exact
        assert state.work_spent == sum(oracle.cost_weight(a) for a, _ in charged_points(state))
        assert state.work_spent >= 80.0  # loop only stops once the budget is crossed

    def test_work_ledger_fractional_weights(self):
        def f(v, q):
            return np.exp(0.7 * v[0] - 0.4 * v[1]) * (1.0 + 0.05 * (q == "r"))

        oracle = CachedOracle(AnalyticModel({1: f, 2: f}, 2, ["q", "r"], costs=(0.1, 3.7)))
        state = init_adapt(oracle, unit_families(2), ["q", "r"])
        adapt(state, oracle, AdaptStop(max_work=25.0))
        assert {e.alpha for e in state.entry_values} == {1, 2}
        reference = sum(oracle.cost_weight(a) for a, _ in charged_points(state))
        assert state.work_spent == pytest.approx(reference, rel=1e-12, abs=0)

    def test_failed_candidates_skipped(self, monkeypatch):
        def f(v, q):
            return v[0] ** 2 + v[1]

        # second fidelity always fails -> its candidates are skipped, the
        # loop keeps refining the cheap one
        class Flaky(AnalyticModel):
            def dispatch(self, requests):
                out = {}
                for req in requests:
                    if req.alpha == 2:
                        out[req.id] = EvalResult(error="backend down")
                    else:
                        out[req.id] = EvalResult(values=tuple(f(req.params, q)
                                                              for q in req.qois))
                return out

        oracle = CachedOracle(Flaky({1: f, 2: f}, 2, ["q"], costs=(1.0, 36.0)))
        state = init_adapt(oracle, unit_families(2), ["q"])
        calls = count_surplus_calls(monkeypatch)
        margins = []
        monkeypatch.setattr(misc, "reduced_margin",
                            lambda index_set: margins.append(1) or reduced_margin(index_set))
        adapt(state, oracle, AdaptStop(max_work=15.0))
        assert all(e.alpha == 1 for e in state.index_set)
        assert any(cand.alpha == 2 for cand, _ in state.skipped)
        assert len(state.index_set) > 1
        # a failed candidate keeps no profit and is tried again on every
        # iteration that scores the margin it stays in
        assert E(2, 1, 1) not in state.profits
        assert calls[E(2, 1, 1)] == len(margins) > 1
        assert all(calls[cand] == 1 for cand in state.profits)

    def test_each_candidate_scored_once(self, monkeypatch):
        oracle = beam_oracle()
        state = init_adapt(oracle, beam_families(), ["u_1", "u_2"])
        calls = count_surplus_calls(monkeypatch)
        adapt(state, oracle, AdaptStop(max_work=150.0))
        assert len(state.committed) >= 5
        assert calls.keys() == state.profits.keys()
        assert set(calls.values()) == {1}
        assert {e for e, _ in state.committed} <= state.profits.keys()

    def test_committed_profit_reproduced_by_rescoring(self):
        oracle = beam_oracle()
        state = init_adapt(oracle, beam_families(), ["u_1", "u_3", "e_20"])
        adapt(state, oracle, AdaptStop(max_work=300.0))
        assert len(state.committed) >= 5
        # score from the kept samples alone, as on the iteration each entry
        # entered the margin; the profit a commit records must still hold
        state.probe_values = {}
        kept = set(state.entry_values)
        for entry, profit in state.committed:
            surplus = _surplus(state, oracle, entry)
            rescored = (float(np.abs(surplus).sum(axis=1).mean())
                        / (oracle.cost_weight(entry.alpha) * _new_points(entry.beta)))
            assert rescored == profit, entry
        assert set(state.entry_values) == kept  # no entry was evaluated again

    def test_commits_without_rebuilding(self, monkeypatch):
        oracle = beam_oracle()
        families = beam_families()
        state = init_adapt(oracle, families, ["u_1", "u_2"])
        builds, weights, surrogates, reads = [], [], [], []
        original_read = CachedOracle.eval_batch
        monkeypatch.setattr(misc, "build", lambda *a, **k: builds.append(1) or build(*a, **k))
        monkeypatch.setattr(misc, "combination_coefficients",
                            lambda s: weights.append(1) or combination_coefficients(s))
        monkeypatch.setattr(misc, "MiscSurrogate",
                            lambda *a: surrogates.append(1) or MiscSurrogate(*a))
        monkeypatch.setattr(CachedOracle, "eval_batch", lambda self, alpha, pts, qois: (
            reads.append((alpha, np.asarray(pts).tobytes()))
            or original_read(self, alpha, pts, qois)))
        monkeypatch.setattr(misc.AdaptState, "committed_points", None)
        adapt(state, oracle, AdaptStop(max_work=150.0, max_candidates=3))
        assert len(state.committed) == 3 and len(surrogates) == 1
        adapt(state, oracle, AdaptStop(max_work=150.0))
        assert len(state.committed) >= 5 and len(surrogates) == 2
        adapt(state, oracle, AdaptStop(max_work=150.0))  # commits nothing, compiles nothing
        assert len(surrogates) == 2
        assert builds == [] and weights == []  # weights are carried, not recomputed
        # one cache read per entry probed in the loop; the root was read before it
        probed = set(state.entry_values) - {E(1, 1, 1)}
        assert len(reads) == len(set(reads)) == len(probed)
        assert set(reads) == {(e.alpha, build_grid(e.beta, families).points.tobytes())
                              for e in probed}
        assert set(state.index_set) <= set(state.entry_values)

    def test_probe_sum_floor_agrees_with_compiled(self):
        # the floor comes from the carried weights and the probe values; the
        # compiled surrogate of the same set must give the same decisions
        oracle = beam_oracle()
        families = beam_families()
        qois = ["u_1", "u_2", "u_3", "e_40", "e_80"]
        stop = AdaptStop(max_work=5000.0, profit_floor=1e-6)
        state = init_adapt(oracle, families, qois)
        adapt(state, oracle, stop)
        assert len(state.committed) >= 10 and state.work_spent < stop.max_work

        def floor(index_set):
            values = build(index_set, oracle, families, qois).evaluate_many(state.probe_points)
            return stop.profit_floor * float((values.max(axis=0) - values.min(axis=0)).sum())

        index_set = MultiIndexSet([E(1, 1, 1)])
        for entry, profit in state.committed:
            assert profit >= floor(index_set), entry
            index_set = index_set.with_entry(entry)
        assert index_set == state.index_set
        # the loop stopped at the floor: the best candidate left falls below it
        margin = [c for c in reduced_margin(index_set) if c.alpha in (1, 2)]
        assert max(state.profits[c] for c in margin) < floor(index_set)

    @pytest.mark.parametrize("budget", [150.0, 5000.0])
    @pytest.mark.parametrize("kind", ["symmetric", "gaussian"])
    def test_each_commit_equals_build(self, kind, budget):
        families = {"symmetric": beam_families(),
                    "gaussian": (WeightedGaussianLeja(1290.0, 40.0),
                                 WeightedGaussianLeja(-2.5, 0.6))}[kind]
        qois = ["u_1", "u_3", "e_20"]
        oracle = beam_oracle()
        state = init_adapt(oracle, families, qois)
        while True:
            commits = len(state.committed)
            adapt(state, oracle, AdaptStop(max_work=budget, max_candidates=commits + 1))
            if len(state.committed) == commits:
                break
            want = build(state.index_set, oracle, families, qois)
            got = state.surrogate
            assert got.index_set == want.index_set
            assert got.coefficients == want.coefficients
            assert got.values.keys() == want.values.keys()
            for entry, values in want.values.items():
                assert got.values[entry].shape == values.shape
                assert got.values[entry].tobytes() == values.tobytes(), entry
        assert len(state.committed) >= 5

    def test_round_trip_after_adapt_is_bit_exact(self, tmp_path):
        oracle = beam_oracle()
        state = init_adapt(oracle, beam_families(), ["u_1", "u_3", "e_20"])
        adapt(state, oracle, AdaptStop(max_work=300.0))
        serialize(state.surrogate, tmp_path / "s.json")
        loaded = deserialize(tmp_path / "s.json")
        pts = random_beam_points(200, 14)
        assert loaded.evaluate_many(pts).tobytes() == state.surrogate.evaluate_many(pts).tobytes()

    def test_deterministic_trajectory(self):
        runs = []
        for _ in range(2):
            oracle = beam_oracle()
            state = init_adapt(oracle, beam_families(), ["u_1", "u_2"])
            adapt(state, oracle, AdaptStop(max_work=100.0))
            runs.append(state)
        assert runs[0].index_set == runs[1].index_set
        assert [e for e, _ in runs[0].committed] == [e for e, _ in runs[1].committed]


class TestSerialization:
    def build_sample(self, oracle=None):
        oracle = oracle or beam_oracle()
        entries = MultiIndexSet([E(1, 1, 1), E(1, 2, 1), E(1, 1, 2), E(2, 1, 1)])
        return build(entries, oracle, beam_families(), ["u_1", "u_2"], config_hash="abc123")

    def test_round_trip_is_bit_exact(self, tmp_path):
        s = self.build_sample()
        path = tmp_path / "s.json"
        serialize(s, path)
        loaded = deserialize(path)
        pts = random_beam_points(100, 9)
        assert loaded.evaluate_many(pts).tobytes() == s.evaluate_many(pts).tobytes()
        assert loaded.config_hash == "abc123"
        assert loaded.index_set == s.index_set

    def test_serialized_file_stable_across_builds(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        serialize(self.build_sample(), a)
        serialize(self.build_sample(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_cache_replay_gives_identical_file(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        serialize(self.build_sample(beam_oracle(EvalCache(cache_path))), a)
        replay_oracle = beam_oracle(EvalCache(cache_path))
        serialize(self.build_sample(replay_oracle), b)
        assert replay_oracle.backend_points == {}
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_dimension_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        serialize(self.build_sample(), path)
        with pytest.raises(SurrogateFormatError):
            deserialize(path, expect_dim=3)

    def test_corrupt_payload_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        serialize(self.build_sample(), path)
        doc = path.read_text().replace("misc-surrogate", "something-else")
        path.write_text(doc)
        with pytest.raises(SurrogateFormatError):
            deserialize(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        serialize(self.build_sample(), path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(SurrogateFormatError):
            deserialize(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d.update(qois=["u_1", "u_2", "u_3"]), "QoIs"),
        (lambda d: d.update(qois=["u_1"]), "QoIs"),
        (lambda d: next(r for r in d["entries"] if r["coeff"] != 0).pop("values"),
         "missing grid values"),
        (lambda d: d.update(entries=[r for r in d["entries"] if r["beta"] != [1, 1]]),
         "downward-closed"),
        (lambda d: [r["beta"].append(1) for r in d["entries"]], "expected dim 2"),
        (lambda d: d.update(entries=[]), "index set is empty"),
    ], ids=["extra_qoi", "missing_qoi", "missing_values", "not_downward_closed",
            "wrong_level_count", "no_entries"])
    def test_inconsistent_payload_rejected(self, tmp_path, edit, match):
        path = tmp_path / "s.json"
        serialize(self.build_sample(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SurrogateFormatError, match=match):
            deserialize(path)

    def test_gaussian_families_round_trip(self, tmp_path):
        def f(v, q):
            return v[0] * v[1]

        fams = (WeightedGaussianLeja(0.5, 2.0), WeightedGaussianLeja(-3.0, 0.92))
        oracle = CachedOracle(AnalyticModel({1: f}, 2, ["q"]))
        s = build(MultiIndexSet([E(1, 1, 1), E(1, 2, 1)]), oracle, fams, ["q"])
        path = tmp_path / "g.json"
        serialize(s, path)
        loaded = deserialize(path)
        pts = np.random.default_rng(2).normal(0, 1, (20, 2))
        assert loaded.evaluate_many(pts).tobytes() == s.evaluate_many(pts).tobytes()
