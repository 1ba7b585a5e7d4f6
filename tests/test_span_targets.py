"""The benchmark's traced functions (``TARGETS`` in ``perfbench/spans.py``)
and the surrogate surface it reads still exist in ``miscuq``, so a refactor
cannot silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from miscuq.misc import MiscSurrogate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, attr", span_targets())
def test_span_target_resolves(name, module, attr):
    owner = importlib.import_module(f"miscuq.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_surrogate_surface_read_by_the_benchmark():
    fields = MiscSurrogate.__dataclass_fields__
    assert {"coefficients", "families", "qoi_names"} <= set(fields)
    assert callable(MiscSurrogate.evaluate_many)
