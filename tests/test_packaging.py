"""The distribution, its package and its console script share one name."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_project_package_and_script_agree():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    name = project["name"]
    assert (ROOT / "src" / name / "__init__.py").is_file()
    assert project["scripts"] == {name: f"{name}.cli:entry"}
    module, _, function = project["scripts"][name].partition(":")
    assert callable(getattr(importlib.import_module(module), function))
