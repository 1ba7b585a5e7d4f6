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

import functools
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .interp import TensorInterpolant, _axis_basis, _basis_matrix, build_grid
from .leja import SymmetricLeja, WeightedGaussianLeja, level_to_knots
from .multiindex import ExtIndex, MultiIndexSet, combination_coefficients, reduced_margin, weight_changes
from .oracle import point_key

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


class BuildError(Exception):
    """A required oracle evaluation failed; lists the missing points."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        lines = "; ".join(f"alpha={a} v={tuple(p)}: {err}" for a, p, err in self.failures[:5])
        more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
        super().__init__(f"{len(self.failures)} oracle evaluation(s) failed: {lines}{more}")


class SurrogateFormatError(ValueError):
    """Surrogate file is missing, corrupt, or has an incompatible layout."""


@dataclass
class MiscSurrogate:
    """Combination-technique surrogate: ``values`` holds each nonzero-weight
    entry's oracle samples (one row per grid point), ``compiled`` their
    weighted sum as one tensor interpolant on the box grid."""

    index_set: MultiIndexSet
    coefficients: dict[ExtIndex, int]
    values: dict[ExtIndex, np.ndarray]
    families: tuple
    qoi_names: tuple[str, ...]
    config_hash: str | None = None
    compiled: TensorInterpolant = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
                    block = _prolongation(family, n_e, n_b) @ block
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


@functools.lru_cache(maxsize=512)  # read-only results; a process sees few (family, size) pairs
def _prolongation(family, n_e: int, n_b: int) -> np.ndarray:
    """(n_b, n_e) matrix taking values at a family's first n_e knots to their
    interpolant at its first n_b knots; nesting makes the first n_e rows the
    identity."""
    matrix = _basis_matrix(*_axis_basis(np.asarray(family.knots(n_e), dtype=float)),
                           np.asarray(family.knots(n_b), dtype=float))
    matrix.flags.writeable = False
    return matrix


def _eval_entry(oracle, entry: ExtIndex, families, qois) -> np.ndarray:
    """Oracle samples on an entry's grid; raises BuildError on any failure."""
    grid = build_grid(entry.beta, families)
    results = oracle.eval_batch(entry.alpha, grid.points, qois)
    bad = [(entry.alpha, p, r.error) for p, r in zip(grid.points, results) if not r.ok]
    if bad:
        raise BuildError(bad)
    return np.asarray([r.values for r in results])


def build(index_set, oracle, families, qois, config_hash=None) -> MiscSurrogate:
    """Construct the surrogate for a downward-closed index set.

    Only entries with nonzero combination weight are evaluated; nested grids
    re-use cached points, so repeated builds cost no oracle calls.
    """
    index_set = index_set if isinstance(index_set, MultiIndexSet) else MultiIndexSet(index_set)
    families = tuple(families)
    qois = tuple(qois)
    coeffs = combination_coefficients(index_set)
    values: dict[ExtIndex, np.ndarray] = {}
    failures = []
    for entry in sorted(coeffs):
        try:
            values[entry] = _eval_entry(oracle, entry, families, qois)
        except BuildError as exc:
            failures.extend(exc.failures)
    if failures:
        raise BuildError(failures)
    return MiscSurrogate(index_set, coeffs, values, families, qois, config_hash)


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
    committed: list = field(default_factory=list)  # (entry, profit) history
    skipped: list = field(default_factory=list)    # (entry, error) from the last pass
    probe_values: dict = field(default_factory=dict)  # entry -> its interpolant at the probes
    entry_values: dict = field(default_factory=dict)  # charged entry -> its oracle samples
    profits: dict[ExtIndex, float] = field(default_factory=dict)  # scored candidates

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
    lo = np.array([f.probe_interval[0] for f in families])
    hi = np.array([f.probe_interval[1] for f in families])
    return lo + unit * (hi - lo)


def _new_points(beta) -> int:
    """Points of ``beta``'s grid on no smaller beta's grid (knots are nested)."""
    return math.prod(level_to_knots(b) - level_to_knots(b - 1) if b > 1 else 1 for b in beta)


def _charge(state: AdaptState, oracle, entry: ExtIndex) -> None:
    """Add an entry's new points to the work ledger; each entry is charged
    once, the root by ``init_adapt`` and a candidate when it is scored.

    The charged entries (the keys of ``state.entry_values``) stay downward
    closed, so their new points are the distinct (fidelity, point) pairs
    evaluated.  The ledger is a function of the adaptive trajectory alone: a
    replay against a warm cache spends the same work and stops at the same place.
    """
    work = oracle.cost_weight(entry.alpha) * _new_points(entry.beta)
    state.work_spent += work
    state.work_by_alpha[entry.alpha] = state.work_by_alpha.get(entry.alpha, 0.0) + work


def init_adapt(oracle, families, qois, *, config_hash=None) -> AdaptState:
    """Fresh adaptive state at the minimal index set [1, (1, ..., 1)]."""
    families = tuple(families)
    index_set = MultiIndexSet([ExtIndex(1, (1,) * len(families))])
    surrogate = build(index_set, oracle, families, qois, config_hash)
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
            if entry not in state.entry_values:
                state.entry_values[entry] = _eval_entry(oracle, entry, families, qois)
            grid = build_grid(entry.beta, families)
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
    carried weights, and the floor is relative to the span of their sum over
    the probe values.  If anything was committed, the loop's end forms one new
    ``state.surrogate`` from the kept samples, with no oracle or cache call.
    Candidates whose evaluations fail are skipped and tried again next time.
    """
    coeffs = dict(state.surrogate.coefficients)
    while True:
        if stop.max_work is not None and state.work_spent >= stop.max_work:
            log.info("adapt stop: work %.3g >= budget %.3g", state.work_spent, stop.max_work)
            break
        if stop.max_candidates is not None and len(state.committed) >= stop.max_candidates:
            log.info("adapt stop: %d candidates committed", len(state.committed))
            break
        registered = {f.alpha for f in oracle.fidelities}
        margin = [c for c in reduced_margin(state.index_set) if c.alpha in registered]
        if not margin:
            log.info("adapt stop: empty reduced margin")
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
            log.info("adapt stop: no candidate available")
            break
        best = min(scored, key=lambda cand: (-state.profits[cand], cand))
        profit = state.profits[best]
        base_values = sum(c * state.probe_values[e] for e, c in sorted(coeffs.items()) if c)
        span = float((base_values.max(axis=0) - base_values.min(axis=0)).sum())
        floor = stop.profit_floor * span
        if profit < floor or profit == 0.0:
            log.info("adapt stop: best profit %.3g below floor %.3g", profit, floor)
            break
        state.index_set = state.index_set.with_entry(best)
        for e, sign in weight_changes(best):
            coeffs[e] = coeffs.get(e, 0) + sign
        state.committed.append((best, profit))
        log.info("adapt: committed %s profit %.3g work %.3g", best, profit, state.work_spent)
    old = state.surrogate
    if state.index_set != old.index_set:  # something was committed
        coeffs = {e: c for e, c in sorted(coeffs.items()) if c}
        state.surrogate = MiscSurrogate(state.index_set, coeffs,
                                        {e: state.entry_values[e] for e in coeffs},
                                        old.families, old.qoi_names, old.config_hash)
    return state


_FORMAT = "misc-surrogate"
_VERSION = 1


def _family_to_json(f) -> dict:
    if isinstance(f, SymmetricLeja):
        return {"kind": "symmetric-leja", "lo": float(f.lo).hex(), "hi": float(f.hi).hex()}
    if isinstance(f, WeightedGaussianLeja):
        return {"kind": "gaussian-leja", "mean": float(f.mean).hex(), "std": float(f.std).hex()}
    raise SurrogateFormatError(f"cannot serialize knot family {f!r}")


def _family_from_json(d):
    try:
        kind = d["kind"]
        if kind == "symmetric-leja":
            return SymmetricLeja(float.fromhex(d["lo"]), float.fromhex(d["hi"]))
        if kind == "gaussian-leja":
            return WeightedGaussianLeja(float.fromhex(d["mean"]), float.fromhex(d["std"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise SurrogateFormatError(f"bad knot family record {d!r}: {exc}") from exc
    raise SurrogateFormatError(f"unknown knot family kind {kind!r}")


def serialize(surrogate: MiscSurrogate, path: str | Path) -> None:
    """Write a surrogate to a self-describing JSON container.

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
        "config_hash": surrogate.config_hash,
    }
    artifacts.write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def deserialize(path: str | Path, expect_dim: int | None = None) -> MiscSurrogate:
    """Load a surrogate written by :func:`serialize`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SurrogateFormatError(f"corrupt surrogate file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise SurrogateFormatError(f"{path} is not a surrogate container")
    if doc.get("version") != _VERSION:
        raise SurrogateFormatError(
            f"unsupported surrogate version {doc.get('version')!r} (expected {_VERSION})")
    try:
        dim = int(doc["dim"])
        qois = tuple(doc["qois"])
        families = tuple(_family_from_json(d) for d in doc["families"])
        raw_entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SurrogateFormatError(f"corrupt surrogate payload in {path}: {exc}") from exc
    if len(families) != dim:
        raise SurrogateFormatError(f"{path}: {len(families)} families for dim {dim}")
    if expect_dim is not None and dim != expect_dim:
        raise SurrogateFormatError(f"{path} has dimension {dim}, expected {expect_dim}")
    entries = []
    coeffs: dict[ExtIndex, int] = {}
    values: dict[ExtIndex, np.ndarray] = {}
    try:
        for rec in raw_entries:
            entry = ExtIndex(int(rec["alpha"]), tuple(int(b) for b in rec["beta"]))
            entries.append(entry)
            c = int(rec["coeff"])
            if c != 0:
                coeffs[entry] = c
                if "values" not in rec:
                    raise SurrogateFormatError(f"{path}: missing grid values for {entry}")
            if "values" in rec:
                size = math.prod(level_to_knots(b) for b in entry.beta)
                flat = np.array([float.fromhex(h) for h in rec["values"]])
                if flat.size != size * len(qois):
                    raise SurrogateFormatError(f"{path}: entry {entry} has {flat.size} values, "
                                               f"expected {size} points x {len(qois)} QoIs")
                values[entry] = flat.reshape(size, len(qois))
        index_set = MultiIndexSet(entries, dim=dim)
        if not entries:
            raise SurrogateFormatError(f"{path}: the index set is empty")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SurrogateFormatError):
            raise
        raise SurrogateFormatError(f"corrupt surrogate payload in {path}: {exc}") from exc
    recomputed = combination_coefficients(index_set)
    if recomputed != coeffs:
        raise SurrogateFormatError(f"{path}: stored coefficients disagree with the index set")
    return MiscSurrogate(index_set, coeffs, values, families, qois,
                         doc.get("config_hash"))
