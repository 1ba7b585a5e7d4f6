"""The benchmark's traced functions (``TARGETS`` in ``perfbench/spans.py``),
the surrogate surface it reads, the cache layout it counts requests from and
the configs it runs still match ``miscuq``, so a refactor or a stricter
config check cannot silently break ``perfbench/run.py``."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
import yaml

from miscuq.cli import cmd_build, cmd_calibrate, cmd_forward, load_config
from miscuq.misc import MiscSurrogate
from miscuq.oracle import BeamAnalogModel, ExternalProcessModel
from test_cli import make_observations, write_config

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_targets():
    return bench_module("spans").TARGETS


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


def test_benchmark_counts_each_stage_requests_from_the_cache(tmp_path, monkeypatch):
    # run.py imports its sibling as a top-level module
    monkeypatch.setitem(sys.modules, "spans", bench_module("spans"))
    run = bench_module("run")
    cfg = load_config(write_config(tmp_path))
    build = cmd_build(cfg)
    seen = len(run.cache_records(cfg.out_dir))
    make_observations(cfg)
    cmd_calibrate(cfg)
    fwd = cmd_forward(cfg)
    records = run.cache_records(cfg.out_dir)
    assert run.backend_requests(records[:seen]) == build["backend_points"]
    assert run.backend_requests(records[seen:]) == fwd["backend_points"]
    assert build["backend_points"] and fwd["backend_points"]


@pytest.mark.parametrize("workload, backend", [("demo", BeamAnalogModel),
                                               ("converge", BeamAnalogModel),
                                               ("external", ExternalProcessModel)])
def test_benchmark_workload_config_loads(tmp_path, monkeypatch, workload, backend):
    monkeypatch.setitem(sys.modules, "spans", bench_module("spans"))
    run = bench_module("run")
    base = yaml.safe_load(run.DEMO_CONFIG.read_text(encoding="utf-8"))
    doc = run.workload_config(workload, base, tmp_path / "observations.csv",
                              f"{sys.executable} -c pass", small=False)
    path = tmp_path / f"{workload}.yaml"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert type(load_config(path).backend) is backend
