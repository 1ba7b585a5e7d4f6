"""Atomic artifact writers, and the rule for malformed input.

Every output file is written to a temporary file next to it and then moved
over it with ``os.replace``, so a reader, or a rerun after a crash, finds
either the previous artifact or the complete new one, never a torn file.

``MALFORMED`` lists what decoding a malformed input raises.  Every parser
of a stage input (the config, the observations, the JSON artifacts, the
evaluation cache and simulator replies) catches it and raises its own
error class, whose exit code the CLI documents.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path

__all__ = ["ArtifactError", "MALFORMED", "write_text", "write_csv"]

# a missing key, a wrong type or value (JSONDecodeError and UnicodeDecodeError
# are ValueErrors), an attribute a non-mapping lacks, a number beyond the
# float range, nesting deeper than the recursion limit, and a bad CSV field
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError,
             csv.Error)


class ArtifactError(OSError):
    """An artifact could not be written; the message names its path."""


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
