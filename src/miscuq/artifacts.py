"""Atomic artifact writers, the rule for malformed input, and the kinds of
value a stage reads back.

Every output file is written to a temporary file next to it and then moved
over it with ``os.replace``, so a reader, or a rerun after a crash, never
finds a torn file.  A failed write leaves the previous artifact, if any,
unless the CLI removed it before the stage ran: it does so with each output
that a later stage reads, so that a failed stage leaves none of them.

``MALFORMED`` lists what decoding a malformed input raises.  Every parser
of a stage input (the config, the observations, the JSON artifacts, the
evaluation cache and simulator replies) catches it and raises its own
error class, whose exit code the CLI documents.

``KINDS`` names each kind of value that a stage reads back from the JSON
artifacts, surrogate files and cache, and ``check`` reads them by it.
"""

from __future__ import annotations

import csv
import io
import math
import os
from itertools import repeat
from pathlib import Path

__all__ = ["ArtifactError", "NumericalError", "MALFORMED", "KINDS", "check", "write_text", "write_csv"]

# a missing key, a wrong type or value (JSONDecodeError and UnicodeDecodeError
# are ValueErrors), an attribute a non-mapping lacks, a number beyond the
# float range, nesting deeper than the recursion limit, and a bad CSV field
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError,
             csv.Error)


def _each(test):
    """The reader of values that each pass ``test``; it returns them as they are."""
    def read(values: list) -> list:
        if all(map(test, values)):
            return values
        raise ValueError("")
    return read


def _finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # a boolean is no number


def _hex_floats(texts: list) -> list:
    """The finite doubles that ``texts`` spell as ``float.hex`` does, from
    ``0x`` or ``-0x`` on; ``float.fromhex`` alone reads ``"0.5"`` as hex and
    ``"nan"`` as a NaN.  The loops run in C, for a cache's many values."""
    if not all(map(isinstance, texts, repeat(str))):
        raise TypeError("not text")
    values = list(map(float.fromhex, texts))  # OverflowError beyond the double range
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite")
    if not all(map(str.startswith, texts, repeat(("0x", "-0x")))):
        raise ValueError("not 0x hex text")
    return values


# each kind by name: the reader of a list of its values, which returns them
# read or raises one of MALFORMED, or a list or mapping type and the kind of
# its items
KINDS = {
    "an integer": _each(lambda v: type(v) is int),  # a boolean is an int subclass
    "an integer >= 1": _each(lambda v: type(v) is int and v >= 1),
    "a finite number": _each(_finite),
    "a positive finite number": _each(lambda v: _finite(v) and v > 0),
    "a name": _each(lambda v: isinstance(v, str)),
    "a mapping": _each(lambda v: isinstance(v, dict)),
    "a hex float": _hex_floats,
    # a cache key: one spelling per double
    "a hex float as float.hex writes it": _each(lambda t: _hex_floats([t])[0].hex() == t),
    "a list of integers": (list, "an integer"),
    "a list of finite numbers": (list, "a finite number"),
    "a list of names": (list, "a name"),
    "a list of mappings": (list, "a mapping"),
    "a mapping of integers": (dict, "an integer"),
    "a list of hex floats": (list, "a hex float"),
    "a mapping of hex floats": (dict, "a hex float"),
    "a list of hex floats as float.hex writes them": (list, "a hex float as float.hex writes it"),
}


def check(doc, kinds: dict, where: str = "") -> dict:
    """The values of ``doc`` under the keys of ``kinds``, each read as the
    kind in ``KINDS`` that ``kinds`` names for it (a hex float as its
    double).  A ``doc`` that is not a mapping, lacks a key or holds another
    kind there is a ValueError naming the key (after ``where``), the kind and
    the value, or in a list or mapping the first refused item."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}expected a JSON mapping, got {type(doc).__name__}")
    missing = [k for k in kinds if k not in doc]
    if missing:
        raise ValueError(f"{where}missing keys {missing}")
    out = {}
    for key, kind in kinds.items():
        value = doc[key]
        container, item = KINDS[kind] if isinstance(KINDS[kind], tuple) else (None, kind)
        if container is None:
            items = {None: value}
        elif isinstance(value, container):
            items = value if container is dict else dict(enumerate(value))
        else:
            raise ValueError(f"{where}{key}: expected {kind}, got {value!r}")
        read = KINDS[item]
        try:
            got = read(list(items.values()))
        except MALFORMED:
            for k, v in items.items():  # name the first refused item
                try:
                    read([v])
                except MALFORMED as exc:
                    at, why = f" at [{k!r}]" if container else "", f" ({exc})" if str(exc) else ""
                    raise ValueError(f"{where}{key}: expected {item}{at}, got {v!r}{why}") from None
        out[key] = (got[0] if container is None else dict(zip(items, got)) if container is dict
                    else got)
    return out


class ArtifactError(OSError):
    """An artifact could not be written; the message names its path."""


class NumericalError(ValueError):
    """An unusable numerical result (CLI exit 4).  A ValueError, so one of
    ``MALFORMED``: no parser catching those may wrap a call that raises it."""


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) in one step; the temporary
    file is removed if anything fails, and an OSError becomes an
    ArtifactError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ArtifactError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_csv(path: str | Path, header, rows, comment: str | None = None) -> None:
    """Write a CSV table, after a ``# comment`` line if one is given."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())
