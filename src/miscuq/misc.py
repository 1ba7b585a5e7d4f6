"""Multi-index stochastic collocation surrogates.

A surrogate is the combination-technique sum of tensor interpolants, one
per extended index [alpha, beta] with nonzero combination weight, on shared
nested knot families; the sum is compiled once into a single interpolant on
the box grid of the componentwise largest beta.  The knots are nested, so
each entry's interpolant reaches the box grid through one small 1-D
prolongation matrix per axis.  ``adapt`` grows the index set greedily:
score each reduced-margin candidate once, when it enters the margin, by the
surplus it would add at the probe points, commit the most profitable one,
repeat until a stop criterion fires.  A commit only updates the combination
weights, and the samples of every probed entry are kept, so each ``adapt``
call compiles the surrogate once, when its loop ends.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import artifacts
from .interp import TensorInterpolant, _axis_basis, _basis_matrix, build_grid
from .leja import SymmetricLeja, WeightedGaussianLeja, level_to_knots
from .multiindex import ExtIndex, MultiIndexSet, combination_coefficients, reduced_margin, weight_changes
from .oracle import OracleError, point_key

__all__ = [
    "BuildError",
    "SurrogateFormatError",
    "MiscSurrogate",
    "build",
    "AdaptStop",
    "AdaptState",
    "init_adapt",
    "adapt",
    "serialize",
    "deserialize",
]

log = logging.getLogger(__name__)

PROBE_COUNT = 64


class BuildError(OracleError):
    """A required oracle evaluation failed; lists the missing points."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        lines = "; ".join(f"alpha={a} v={tuple(map(float, p))}: {err}"
                          for a, p, err in self.failures[:5])
        more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
        super().__init__(f"{len(self.failures)} oracle evaluation(s) failed: {lines}{more}")


class SurrogateFormatError(artifacts.NumericalError):
    """Surrogate file is missing, corrupt, or has an incompatible layout."""


@dataclass
class MiscSurrogate:
    """Combination-technique surrogate: ``coefficients`` are the weights of
    ``index_set``, ``values`` each nonzero-weight entry's oracle samples (one
    row per grid point), ``compiled`` their weighted sum on the box grid."""

    index_set: MultiIndexSet
    values: dict[ExtIndex, np.ndarray]
    families: tuple
    qoi_names: tuple[str, ...]
    coefficients: dict[ExtIndex, int] = field(init=False)
    compiled: TensorInterpolant = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.coefficients = combination_coefficients(self.index_set)
        max_beta = np.max([e.beta for e in self.coefficients], axis=0)
        box = build_grid(max_beta, self.families)
        total = np.zeros((len(box), len(self.qoi_names)))
        for entry, c in sorted(self.coefficients.items()):
            # carry the samples onto the box knots one axis at a time; ``done``
            # is the box size of the axes already carried
            block, done = self.values[entry], 1
            for family, b_e, n_b in zip(self.families, entry.beta, box.shape):
                n_e = level_to_knots(b_e)
                block = block.reshape(done, n_e, -1)
                if n_e < n_b:
                    block = np.einsum("be,der->dbr", _prolongation(family, n_e, n_b), block)
                done *= n_b
            total += c * block.reshape(total.shape)
        self.compiled = TensorInterpolant(box, total)

    @property
    def dim(self) -> int:
        return len(self.families)

    @property
    def domain(self) -> tuple[tuple[float, float], ...]:
        return tuple(f.domain for f in self.families)

    def evaluate_many(self, points) -> np.ndarray:
        """Surrogate values at (S, dim) points; returns (S, n_qois)."""
        return self.compiled.evaluate_many(points)

    def evaluate(self, v) -> np.ndarray:
        return self.evaluate_many(np.asarray(v, dtype=float)[None, :])[0]

    def extrapolation_mask(self, points) -> np.ndarray:
        """True per point when any coordinate leaves its family's domain."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = np.array(self.domain).T
        return np.any((points < lo) | (points > hi), axis=1)


def _prolongation(family, n_e: int, n_b: int) -> np.ndarray:
    """(n_b, n_e) matrix taking values at a family's first n_e knots to their
    interpolant at its first n_b knots; nesting makes the first n_e rows the
    identity."""
    return _basis_matrix(*_axis_basis(np.asarray(family.knots(n_e), dtype=float)),
                         np.asarray(family.knots(n_b), dtype=float))


def _eval_entry(oracle, alpha: int, grid, qois) -> np.ndarray:
    """Oracle samples on a grid at one fidelity; raises BuildError on any failure."""
    results = oracle.eval_batch(alpha, grid.points, qois)
    bad = [(alpha, p, r.error) for p, r in zip(grid.points, results) if not r.ok]
    if bad:
        raise BuildError(bad)
    return np.asarray([r.values for r in results])


def build(index_set, oracle, families, qois) -> MiscSurrogate:
    """Construct the surrogate for a downward-closed index set.

    Only entries with nonzero combination weight are evaluated; nested grids
    re-use cached points, so repeated builds cost no oracle calls.
    """
    index_set = index_set if isinstance(index_set, MultiIndexSet) else MultiIndexSet(index_set)
    families = tuple(families)
    qois = tuple(qois)
    values: dict[ExtIndex, np.ndarray] = {}
    failures = []
    for entry in sorted(combination_coefficients(index_set)):
        try:
            values[entry] = _eval_entry(oracle, entry.alpha, build_grid(entry.beta, families), qois)
        except BuildError as exc:
            failures.extend(exc.failures)
    if failures:
        raise BuildError(failures)
    return MiscSurrogate(index_set, values, families, qois)


@dataclass(frozen=True)
class AdaptStop:
    """Stop criteria for the adaptive loop; any one firing ends the loop."""

    max_work: float | None = None
    max_candidates: int | None = None
    profit_floor: float = 1e-8  # relative to the surrogate's output range


@dataclass
class AdaptState:
    """Mutable bookkeeping carried across adaptive iterations."""

    index_set: MultiIndexSet
    surrogate: MiscSurrogate
    probe_points: np.ndarray
    work_spent: float = 0.0
    work_by_alpha: dict = field(default_factory=dict)
    points_by_alpha: dict = field(default_factory=dict)  # new points charged at each fidelity
    committed: list = field(default_factory=list)  # (entry, profit) history
    skipped: list = field(default_factory=list)    # (entry, error) from the last pass
    probe_values: dict = field(default_factory=dict)  # entry -> its interpolant at the probes
    entry_values: dict = field(default_factory=dict)  # charged entry -> its oracle samples
    profits: dict[ExtIndex, float] = field(default_factory=dict)  # scored candidates
    stop_reason: str = ""  # why the last ``adapt`` call stopped

    def committed_points(self, alpha: int) -> set:
        """Union of grid point keys over entries of the set at one fidelity."""
        keys: set = set()
        for entry in self.index_set:
            if entry.alpha != alpha:
                continue
            for p in build_grid(entry.beta, self.surrogate.families).points:
                keys.add(point_key(p))
        return keys


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def _halton(dim: int, count: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in
    [0, 1)^dim (Halton, Numer. Math. 1960): coordinate n of point i is the
    radical inverse of i in the n-th prime, summed digit by digit in the
    same floating-point operations as SciPy's unscrambled ``qmc.Halton``."""
    unit = np.zeros((count, dim))
    for n, base in enumerate(_primes(dim)):
        quotient = np.arange(count)
        b2r = 1.0 / base
        while quotient.any():
            unit[:, n] += (quotient % base) * b2r
            b2r /= base
            quotient //= base
    return unit


def _probe_grid(families, count: int) -> np.ndarray:
    """Deterministic low-discrepancy probe points spanning the family boxes."""
    unit = _halton(len(families), count)
    lo, hi = np.array([f.bounds() for f in families]).T
    return lo + unit * (hi - lo)


def _new_points(beta) -> int:
    """Points of ``beta``'s grid on no smaller beta's grid (knots are nested)."""
    return math.prod(level_to_knots(b) - level_to_knots(b - 1) if b > 1 else 1 for b in beta)


def _charge(state: AdaptState, oracle, entry: ExtIndex) -> None:
    """Add an entry's new points, and their work, to the ledger; each entry
    is charged once, the root by ``init_adapt`` and a candidate when it is scored.

    The charged entries (the keys of ``state.entry_values``) stay downward
    closed, so their new points are the distinct (fidelity, point) pairs
    evaluated.  The ledger is a function of the adaptive trajectory alone: a
    replay against a warm cache spends the same work and stops at the same place.
    """
    points = _new_points(entry.beta)
    work = oracle.cost_weight(entry.alpha) * points
    state.work_spent += work
    state.work_by_alpha[entry.alpha] = state.work_by_alpha.get(entry.alpha, 0.0) + work
    state.points_by_alpha[entry.alpha] = state.points_by_alpha.get(entry.alpha, 0) + points


def init_adapt(oracle, families, qois) -> AdaptState:
    """Fresh adaptive state at the minimal index set [1, (1, ..., 1)]."""
    families = tuple(families)
    index_set = MultiIndexSet([ExtIndex(1, (1,) * len(families))])
    surrogate = build(index_set, oracle, families, qois)
    state = AdaptState(index_set, surrogate, _probe_grid(families, PROBE_COUNT),
                       entry_values=dict(surrogate.values))
    for entry in index_set:
        _charge(state, oracle, entry)
    return state


def _surplus(state: AdaptState, oracle, cand: ExtIndex) -> np.ndarray:
    """Change of the surrogate at the probe points if ``cand`` joined the set,
    from the weight changes ``cand`` makes; every entry it reaches keeps its
    interpolant at the probes.  BuildError if ``cand``'s evaluations fail."""
    families, qois = state.surrogate.families, state.surrogate.qoi_names
    out = np.zeros((len(state.probe_points), len(qois)))
    for entry, sign in weight_changes(cand):
        if entry not in state.probe_values:
            grid = build_grid(entry.beta, families)
            if entry not in state.entry_values:
                state.entry_values[entry] = _eval_entry(oracle, entry.alpha, grid, qois)
            state.probe_values[entry] = TensorInterpolant(
                grid, state.entry_values[entry]).evaluate_many(state.probe_points)
        out += sign * state.probe_values[entry]
    return out


def adapt(state: AdaptState, oracle, stop: AdaptStop) -> AdaptState:
    """Run the greedy enlargement loop until a stop criterion fires.

    Each iteration scores the reduced-margin candidates not scored yet (their
    evaluations go to the cache whether or not they are selected) by the
    surplus they would add at the probe points, and commits the candidate
    with the highest profit ``|surplus| / (cost-weighted new points)``.  A
    surplus depends only on the kept samples of the candidate's backward
    shifts, so a profit stays valid until its candidate is committed and is
    kept in ``state.profits``.  A commit applies ``weight_changes`` to the
    weights of ``state.index_set``; the floor is relative to the span of their
    sum over the probe values.  If anything was committed, the loop's end forms
    one new ``state.surrogate`` from the kept samples, with no oracle or cache call.
    Candidates whose evaluations fail are skipped and tried again next time.
    The criterion that fired is kept in ``state.stop_reason``.
    """
    coeffs = combination_coefficients(state.index_set)
    while True:
        if stop.max_work is not None and state.work_spent >= stop.max_work:
            state.stop_reason = f"work {state.work_spent:.3g} >= budget {stop.max_work:.3g}"
            break
        if stop.max_candidates is not None and len(state.committed) >= stop.max_candidates:
            state.stop_reason = f"{len(state.committed)} candidates committed"
            break
        margin = [c for c in reduced_margin(state.index_set) if c.alpha <= len(oracle.fidelities)]
        if not margin:
            state.stop_reason = "empty reduced margin"
            break
        state.skipped = []
        for cand in margin:
            if cand in state.profits:
                continue
            try:
                surplus = _surplus(state, oracle, cand)  # fails before anything is charged
            except BuildError as exc:
                state.skipped.append((cand, str(exc)))
                log.info("adapt: candidate %s unavailable (%s)", cand, exc)
                continue
            _charge(state, oracle, cand)
            state.profits[cand] = (float(np.abs(surplus).sum(axis=1).mean())
                                   / (oracle.cost_weight(cand.alpha) * _new_points(cand.beta)))
        scored = [cand for cand in margin if cand in state.profits]
        if not scored:
            state.stop_reason = "no candidate available"
            break
        best = min(scored, key=lambda cand: (-state.profits[cand], cand))
        profit = state.profits[best]
        base_values = sum(c * state.probe_values[e] for e, c in sorted(coeffs.items()) if c)
        span = float((base_values.max(axis=0) - base_values.min(axis=0)).sum())
        floor = stop.profit_floor * span
        if profit < floor or profit == 0.0:
            state.stop_reason = f"best profit {profit:.3g} below floor {floor:.3g}"
            break
        state.index_set = state.index_set.with_entry(best)
        for e, sign in weight_changes(best):
            coeffs[e] = coeffs.get(e, 0) + sign
        state.committed.append((best, profit))
        log.info("adapt: committed %s profit %.3g work %.3g", best, profit, state.work_spent)
    log.info("adapt stop: %s", state.stop_reason)
    old = state.surrogate
    if state.index_set != old.index_set:  # something was committed
        state.surrogate = MiscSurrogate(state.index_set,
                                        {e: state.entry_values[e] for e, c in coeffs.items() if c},
                                        old.families, old.qoi_names)
    return state


_FORMAT = "misc-surrogate"
_VERSION = 1


# each knot family class by its kind in the container; its fields are hex floats
_FAMILIES = {"symmetric-leja": SymmetricLeja, "gaussian-leja": WeightedGaussianLeja}


def _family_to_json(f) -> dict:
    for kind, cls in _FAMILIES.items():
        if type(f) is cls:
            return {"kind": kind, **{n.name: float(getattr(f, n.name)).hex() for n in fields(f)}}
    raise SurrogateFormatError(f"cannot serialize knot family {f!r}")


def _family_from_json(d):
    try:
        cls = _FAMILIES.get(artifacts.check(d, {"kind": "a name"})["kind"])
        if cls is None:
            raise ValueError(f"unknown kind {d['kind']!r}")
        return cls(**artifacts.check(d, {n.name: "a hex float" for n in fields(cls)}))
    except artifacts.MALFORMED as exc:
        raise ValueError(f"bad knot family record {d!r}: {exc}") from exc


def serialize(surrogate: MiscSurrogate, path: str | Path, config_hash: str | None = None) -> None:
    """Write a surrogate and its provenance hash to a self-describing JSON container.

    Knot abscissas are not stored: family specs regenerate them
    bit-identically.  Grid values are hex-encoded doubles, so a round trip
    is bit-exact.
    """
    entries = []
    for entry in surrogate.index_set:
        rec = {"alpha": entry.alpha, "beta": list(entry.beta),
               "coeff": surrogate.coefficients.get(entry, 0)}
        if entry in surrogate.values:
            rec["values"] = [v.hex() for v in surrogate.values[entry].reshape(-1).tolist()]
        entries.append(rec)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "dim": surrogate.dim,
        "qois": list(surrogate.qoi_names),
        "families": [_family_to_json(f) for f in surrogate.families],
        "entries": entries,
        "config_hash": config_hash,
    }
    artifacts.write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# the kinds (``artifacts.KINDS``) of the container's and of an entry's keys
_TOP = {"format": "a name", "version": "an integer", "dim": "an integer >= 1",
        "qois": "a list of names", "families": "a list of mappings",
        "entries": "a list of mappings"}
_ENTRY = {"alpha": "an integer", "beta": "a list of integers", "coeff": "an integer"}
_GRID_ENTRY = {**_ENTRY, "values": "a list of hex floats"}  # with its grid values


def deserialize(path: str | Path, expect_dim: int | None = None) -> MiscSurrogate:
    """Load a surrogate written by :func:`serialize`; a file that cannot be
    read or holds anything else is a SurrogateFormatError naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        top = artifacts.check(doc, _TOP)
        if top["format"] != _FORMAT:
            raise ValueError("not a surrogate container")
        if top["version"] != _VERSION:
            raise ValueError(f"unsupported version {top['version']!r} (expected {_VERSION})")
        dim, qois = top["dim"], tuple(top["qois"])
        families = tuple(map(_family_from_json, top["families"]))
        if len(families) != dim:
            raise ValueError(f"{len(families)} families for dim {dim}")
        if expect_dim is not None and dim != expect_dim:
            raise ValueError(f"dimension {dim}, expected {expect_dim}")
        entries = []
        coeffs: dict[ExtIndex, int] = {}
        values: dict[ExtIndex, np.ndarray] = {}
        for i, rec in enumerate(top["entries"]):
            e = artifacts.check(rec, _GRID_ENTRY if "values" in rec else _ENTRY, f"entries[{i}].")
            entry = ExtIndex(e["alpha"], tuple(e["beta"]))
            entries.append(entry)
            if e["coeff"] != 0:
                coeffs[entry] = e["coeff"]
                if "values" not in e:
                    raise ValueError(f"missing grid values for {entry}")
            if "values" in e:
                size = math.prod(level_to_knots(b) for b in entry.beta)
                if len(e["values"]) != size * len(qois):
                    raise ValueError(f"entry {entry} has {len(e['values'])} values, "
                                     f"expected {size} points x {len(qois)} QoIs")
                values[entry] = np.array(e["values"]).reshape(size, len(qois))
        index_set = MultiIndexSet(entries, dim=dim)
        if not entries:
            raise ValueError("the index set is empty")
        if combination_coefficients(index_set) != coeffs:
            raise ValueError("stored coefficients disagree with the index set")
    except (OSError, *artifacts.MALFORMED) as exc:
        raise SurrogateFormatError(f"corrupt surrogate payload in {path}: {exc}") from exc
    return MiscSurrogate(index_set, values, families, qois)
