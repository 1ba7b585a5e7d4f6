"""Downward-closed extended multi-index sets and combination coefficients.

An extended index pairs a fidelity level ``alpha`` with a grid-level
multi-index ``beta``; sets of them are value objects kept in canonical
(lexicographic) order so iteration and serialization are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, NamedTuple

__all__ = [
    "ExtIndex",
    "MultiIndexSet",
    "is_downward_closed",
    "combination_coefficients",
    "weight_changes",
    "reduced_margin",
]


class ExtIndex(NamedTuple):
    alpha: int
    beta: tuple[int, ...]

    def as_vector(self) -> tuple[int, ...]:
        return (self.alpha, *self.beta)

    def shifted(self, offsets: tuple[int, ...]) -> "ExtIndex":
        """Componentwise shift by (d_alpha, d_beta_1, ...)."""
        return ExtIndex(self.alpha + offsets[0],
                        tuple(b + o for b, o in zip(self.beta, offsets[1:])))


def _neighbors(e: ExtIndex, step: int):
    """The indices ``step`` (+1 forward, -1 backward) from ``e`` in one
    component, leaving out those with a component below 1."""
    vec = e.as_vector()
    for n, c in enumerate(vec):
        if c + step >= 1:
            nb = vec[:n] + (c + step,) + vec[n + 1:]
            yield ExtIndex(nb[0], nb[1:])


def is_downward_closed(entries: Iterable[ExtIndex]) -> bool:
    """True iff every backward neighbor of every entry is in the set."""
    s = set(entries)
    return all(nb in s for e in s for nb in _neighbors(e, -1))


@dataclass(frozen=True)
class MultiIndexSet:
    """Finite downward-closed set of extended indices; immutable value type."""

    entries: tuple[ExtIndex, ...]
    dim: int

    def __init__(self, entries: Iterable[ExtIndex], dim: int | None = None):
        normalized = []
        for e in entries:
            e = ExtIndex(int(e[0]), tuple(int(b) for b in e[1]))
            if e.alpha < 1 or any(b < 1 for b in e.beta):
                raise ValueError(f"extended index components must be >= 1, got {e}")
            normalized.append(e)
        entries = tuple(sorted(set(normalized)))
        dims = {len(e.beta) for e in entries}
        if len(dims) > 1:
            raise ValueError(f"inconsistent beta dimensions: {sorted(dims)}")
        if dims:
            found = dims.pop()
            if dim is not None and found != dim:
                raise ValueError(f"entries have {found} beta components, expected dim {dim}")
            dim = found
        elif dim is None:
            raise ValueError("empty set needs an explicit dim")
        if not is_downward_closed(entries):
            raise ValueError("entries do not form a downward-closed set")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dim", int(dim))

    def with_entry(self, e: ExtIndex) -> "MultiIndexSet":
        return MultiIndexSet(self.entries + (e,), dim=self.dim)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _as_index_set(entries) -> MultiIndexSet:
    if isinstance(entries, MultiIndexSet):
        return entries
    return MultiIndexSet(entries)


def weight_changes(cand: ExtIndex):
    """``(entry, (-1)^|s|)`` for each valid ``cand - s``, s in {0,1}^(1+N), in
    ascending entry order: the only weight changes when ``cand`` joins a set
    it keeps downward closed.  The sign includes the fidelity shift, which
    makes the sum telescope over fidelity and grid levels alike."""
    # shifts in descending order put the entries in ascending order
    for s in product(*((1, 0) if c > 1 else (0,) for c in cand.as_vector())):
        yield cand.shifted(tuple(-o for o in s)), -1 if sum(s) % 2 else 1


def combination_coefficients(index_set) -> dict[ExtIndex, int]:
    """Integer combination weights, zeros omitted: the sum of ``weight_changes``
    over the set in canonical order, each prefix of which is downward closed."""
    coeffs: dict[ExtIndex, int] = {}
    for cand in _as_index_set(index_set):
        for e, sign in weight_changes(cand):
            coeffs[e] = coeffs.get(e, 0) + sign
    return {e: c for e, c in coeffs.items() if c}


def reduced_margin(index_set) -> tuple[ExtIndex, ...]:
    """Indices outside the set whose every backward neighbor is inside.

    Adding any returned index keeps the set downward closed.  Returned in
    canonical sorted order.
    """
    index_set = _as_index_set(index_set)
    members = set(index_set.entries)
    candidates = {nb for e in index_set for nb in _neighbors(e, 1)} - members
    margin = [c for c in candidates if all(nb in members for nb in _neighbors(c, -1))]
    return tuple(sorted(margin))
