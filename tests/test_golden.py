"""Golden digests: the sha256 of every file the pipeline writes on the
benchmark's three workloads (``perfbench/run.py``) stays as pinned in
``tests/golden/<workload>.json``.  Each workload runs build, a warm rebuild,
calibrate, forward and report through ``cli.main`` in process, and the
demo also as ``python -m miscuq`` processes.  A change that alters output
bytes on purpose rewrites the pins with ``tools/golden.py``.

No stage calls BLAS, LAPACK or numpy's SIMD ``exp``, so the digests do not
depend on the OpenBLAS core, and a test runs the demo under other cores and
with numpy's SIMD capped at X86_V3 to show it.  Below X86_V3 pocketfft
rounds differently, so the pins record numpy's SIMD targets, and a failure
names them when this host's differ; the test itself compares the digests
alone."""

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


def cpu_features():
    """numpy's record of its SIMD targets and of the CPU features it enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    return umath


def kernels() -> dict:
    """numpy's SIMD targets that this CPU enables."""
    umath = cpu_features()
    return {"simd": [f for f in (*umath.__cpu_baseline__, *umath.__cpu_dispatch__)
                     if umath.__cpu_features__.get(f)]}


def simd_above_v3() -> list[str]:
    """numpy's dispatch targets above X86_V3 that this CPU enables: the ones
    ``NPY_DISABLE_CPU_FEATURES`` must name to cap numpy at X86_V3."""
    umath = cpu_features()
    targets = list(umath.__cpu_dispatch__)
    if "X86_V3" not in targets:
        return []
    return [f for f in targets[targets.index("X86_V3") + 1:] if umath.__cpu_features__.get(f)]


def kernel_note(pins: dict) -> str:
    """How numpy's SIMD targets in ``pins`` differ from this host's, or ''."""
    here = kernels()["simd"]
    return "" if pins.get("simd") == here else \
        f"; numpy SIMD pinned on {pins.get('simd')}, this host runs {here}"


def package_path() -> str:
    """A PYTHONPATH under which a child imports this checkout's miscuq."""
    import miscuq
    return os.pathsep.join(filter(None, [str(Path(miscuq.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))


def stage_process(argv: list[str]) -> int:
    """``python -m miscuq *argv`` in a child process with two OpenBLAS
    threads asked for, as the benchmark's stages are: the stage loads numpy
    itself (``cli._load_numpy``) and ends through ``cli.entry``'s
    ``os._exit``.  Its exit code."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": package_path()}
    return subprocess.run([sys.executable, "-m", "miscuq", *argv], env=env).returncode


def workload_digests(run, name: str, stage_main=main) -> dict[str, str]:
    """Run one workload in the current directory with ``--out out``, each
    stage through ``stage_main`` (``cli.main`` in process, or
    ``stage_process``); the sha256 of each file under ``out``, config hash
    replaced by HASH_TOKEN.  ``run`` is the loaded ``perfbench/run.py``."""
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
        code = stage_main([stage, "--config", str(config), "--out", "out", "--quiet"])
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


def test_demo_stage_processes_match_golden_digests(tmp_path, monkeypatch):
    # in process numpy is already loaded, so only a stage process runs the
    # one-thread load and the os._exit ending
    pins = json.loads((GOLDEN / "demo.json").read_text(encoding="utf-8"))
    run = load_run(monkeypatch)
    monkeypatch.chdir(tmp_path)
    changed = moved(pins["files"], workload_digests(run, "demo", stage_process))
    assert not changed, f"demo stage processes: output bytes differ from the pins: {changed}"


def test_demo_config_hash():
    # the hash that the digests mask.  The demo config names its observations
    # by a relative path, and the hash covers the document as written plus
    # the file's bytes, so this value holds in any checkout
    demo = Path(__file__).resolve().parents[1] / "docs" / "demo_config.yaml"
    assert load_config(demo).config_hash == "04f11ed5797c1060"


def test_moved_names_each_kind_of_change():
    assert moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == [
        "changed b", "removed c", "added d"]


def test_kernel_note_names_changed_simd_targets():
    here = kernels()
    assert kernel_note(here) == ""
    assert kernel_note({"simd": ["X86_V2"]}) == \
        f"; numpy SIMD pinned on ['X86_V2'], this host runs {here['simd']}"


def test_pins_record_the_kernels():
    # numpy's SIMD targets alone: no output depends on the OpenBLAS core
    for name in WORKLOADS:
        pins = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        assert "simd" in pins and "openblas_core" not in pins, name


# prints the demo workload's digests as its last line, from its working directory
CHILD = """import json, sys
import test_golden
sys.modules["spans"] = test_golden.bench_module("spans")
print(json.dumps(test_golden.workload_digests(test_golden.bench_module("run"), "demo")))
"""


def test_outputs_do_not_depend_on_the_blas_kernel_or_the_simd_level(tmp_path):
    """The demo golden workload (build, warm rebuild, calibrate, forward,
    report), in a child process under another OpenBLAS core (Haswell, or
    Prescott on a Haswell host) with numpy's SIMD capped at X86_V3, and then
    under Prescott, writes every pinned digest: the surrogate, the Laplace
    step and the posterior draws sum in numpy's einsum loop and factor with
    the plain-Python ``params.symmetric_eigen``, and the KDE kernel uses
    ``math.exp``."""
    here = openblas_core()
    wanted = "Prescott" if here == "Haswell" else "Haswell"
    core_moves = here is not None and openblas_core(OPENBLAS_CORETYPE=wanted) != here
    above = simd_above_v3()
    if not (core_moves or above):
        pytest.skip(f"neither the OpenBLAS core ({here}, not a DYNAMIC_ARCH build or none) nor "
                    f"numpy's SIMD level (no target above X86_V3 enabled) can be changed")
    capped = {"NPY_DISABLE_CPU_FEATURES": " ".join(above)} if above else {}
    setups = ([{**capped, "OPENBLAS_CORETYPE": wanted}, {"OPENBLAS_CORETYPE": "Prescott"}]
              if core_moves else [capped])
    path = os.pathsep.join([package_path(), str(Path(__file__).parent)])
    pins = json.loads((GOLDEN / "demo.json").read_text(encoding="utf-8"))["files"]
    for i, env in enumerate(setups):
        (tmp_path / str(i)).mkdir()
        proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path / str(i),
                              capture_output=True, text=True,
                              env={**os.environ, **env, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        changed = moved(pins, json.loads(proc.stdout.splitlines()[-1]))
        assert not changed, f"demo under {env}: output bytes differ from the pins: {changed}"
