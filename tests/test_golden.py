"""Golden digests: the sha256 of every file the pipeline writes on the
benchmark's three workloads (``perfbench/run.py``) stays as pinned in
``tests/golden/<workload>.json``.  Each workload runs build, a warm rebuild,
calibrate, forward and report through ``cli.main`` in process.  A change
that alters output bytes on purpose rewrites the pins with
``tools/golden.py``.

The pins also record the OpenBLAS kernel and numpy's SIMD targets they were
made with.  Those decide how BLAS and ufunc loops round, so a failure names
them when this host's differ; the test itself compares the digests alone."""

import hashlib
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from miscuq.cli import load_config, main
from test_span_targets import BENCH, bench_module

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("demo", "converge", "external")
STAGES = ("build", "build", "calibrate", "forward", "report")
# stands in for the config hash, which covers the absolute paths of the
# observations file and the simulator and so differs between checkouts
HASH_TOKEN = b"<config-hash>"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def openblas_core(**env) -> str | None:
    """The OpenBLAS core that numpy picks in a child with ``env`` added, from
    the ``Core:`` line its ``import numpy`` prints under ``OPENBLAS_VERBOSE=2``
    (None without OpenBLAS)."""
    child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, **env, "OPENBLAS_VERBOSE": "2"})
    core = re.search(r"^Core: (\S+)", child.stderr + child.stdout, re.MULTILINE)
    return core and core.group(1)


def kernels() -> dict:
    """The OpenBLAS core that numpy picks on this host and numpy's SIMD
    targets that this CPU enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    return {"openblas_core": openblas_core(),
            "simd": [f for f in (*umath.__cpu_baseline__, *umath.__cpu_dispatch__)
                     if umath.__cpu_features__.get(f)]}


def kernel_note(pins: dict) -> str:
    """What differs between the kernels in ``pins`` and this host's, or ''."""
    here = kernels()
    notes = [f"{what} pinned on {pins.get(key)}, this host runs {here[key]}"
             for key, what in (("openblas_core", "OpenBLAS core"), ("simd", "numpy SIMD"))
             if pins.get(key) != here[key]]
    return "".join(f"; {n}" for n in notes)


def workload_digests(run, name: str) -> dict[str, str]:
    """Run one workload in the current directory with ``--out out``; the
    sha256 of each file under ``out``, config hash replaced by HASH_TOKEN.
    ``run`` is the loaded ``perfbench/run.py``."""
    base = yaml.safe_load(run.DEMO_CONFIG.read_text(encoding="utf-8"))
    observations = run.DEMO_CONFIG.parent / base["calibration"]["observations"]
    if name != "demo":
        observations = Path("observations.csv").resolve()
        run.write_observations(observations, base["calibration"]["qois"])
    sim = shlex.join([sys.executable, "-S", str(BENCH / "beam_sim.py")])
    config = Path(f"{name}.yaml")
    config.write_text(json.dumps(run.workload_config(name, base, observations, sim, small=False),
                                 indent=1), encoding="utf-8")
    for stage in STAGES:
        code = main([stage, "--config", str(config), "--out", "out", "--quiet"])
        assert code == 0, f"{name}: {stage} exited {code}"
    config_hash = load_config(config, out="out").config_hash.encode("ascii")
    out = Path("out")
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes().replace(config_hash, HASH_TOKEN)).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def moved(pinned: dict, digests: dict) -> list[str]:
    """``added``, ``removed`` or ``changed`` and the file name, for each
    file whose digest differs between two mappings of file to digest."""
    return [f"{'added' if f not in pinned else 'removed' if f not in digests else 'changed'} {f}"
            for f in sorted(pinned.keys() | digests.keys()) if pinned.get(f) != digests.get(f)]


def load_run(monkeypatch):
    """``perfbench/run.py``, which imports its sibling ``spans`` as a top-level module."""
    monkeypatch.setitem(sys.modules, "spans", bench_module("spans"))
    return bench_module("run")


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_golden_digests(tmp_path, monkeypatch, name):
    pins = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    made_with = {k: pins[k] for k in versions()}
    assert made_with == versions(), (
        f"the pins were made with {made_with}, this is {versions()}; "
        "rerun tools/golden.py on a checkout whose outputs are known good")
    run = load_run(monkeypatch)
    monkeypatch.chdir(tmp_path)
    digests = workload_digests(run, name)
    changed = moved(pins["files"], digests)
    assert not changed, f"{name}: output bytes differ from the pins: {changed}{kernel_note(pins)}"


def test_moved_names_each_kind_of_change():
    assert moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == [
        "changed b", "removed c", "added d"]


def test_kernel_note_names_a_changed_core():
    here = kernels()
    assert kernel_note(here) == ""
    assert kernel_note({**here, "openblas_core": "NoSuchCore"}) == \
        f"; OpenBLAS core pinned on NoSuchCore, this host runs {here['openblas_core']}"


def test_pins_record_the_kernels():
    for name in WORKLOADS:
        pins = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        assert {"openblas_core", "simd"} <= pins.keys(), name


def test_build_and_map_do_not_depend_on_the_blas_kernel(tmp_path):
    """The demo's ``build`` and ``calibrate``, each a process, under the host's
    OpenBLAS core and under another one (Haswell, or Prescott on a Haswell
    host), write the same ``surrogate.json`` and ``build_report.json``, and
    the same MAP and multistart records in ``posterior.json``: the surrogate
    sums in numpy's own einsum loop, not in a BLAS kernel.  The Laplace
    covariance and everything computed from it still go through BLAS and
    LAPACK, so they may move with the core."""
    here = openblas_core()
    if here is None:
        pytest.skip("numpy does not report an OpenBLAS core")
    wanted = "Prescott" if here == "Haswell" else "Haswell"
    other = openblas_core(OPENBLAS_CORETYPE=wanted)
    if other == here:
        pytest.skip(f"OpenBLAS is not a DYNAMIC_ARCH build: it runs {here} "
                    f"whatever OPENBLAS_CORETYPE says")
    import miscuq
    config = Path(__file__).resolve().parents[1] / "docs" / "demo_config.yaml"
    path = os.pathsep.join([str(Path(miscuq.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    outs = []
    for core, env in ((here, {}), (other, {"OPENBLAS_CORETYPE": wanted})):
        out = tmp_path / core
        for stage in ("build", "calibrate"):
            proc = subprocess.run([sys.executable, "-m", "miscuq", stage, "--config", str(config),
                                   "--out", str(out), "--quiet"], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": path, **env})
            assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("surrogate.json", "build_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    posterior = [json.loads((out / "posterior.json").read_text(encoding="utf-8")) for out in outs]
    for key in ("mean", "multistart"):
        assert posterior[0][key] == posterior[1][key], f"{key} differs on {here} and {other}"
